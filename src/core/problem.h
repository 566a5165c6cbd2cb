// The cache-hit-ratio maximization instance P1.1 (Eq. 6).
//
// A PlacementProblem snapshots everything the algorithms consume:
//   * the service-eligibility indicator I1(m,k,i) (Eq. 3) — whether edge
//     server m can deliver model i to user k within T̄_{k,i}, including the
//     relayed path through an associated server (Eqs. 4–5), computed from
//     *average* channel rates (the paper's "snapshot" decision stage).
//     Eligibility is evaluated from one precomputed inverse effective rate
//     per (m, k) link (the payload only scales it);
//   * per-(m,i) hit lists: the users (with request mass) that placement
//     x_{m,i} = 1 can newly serve — the data structure behind every
//     marginal-gain computation;
//   * the storage side: library block structure and server capacities.
//
// Hit lists are stored factored. Eq. 5's relayed path costs the same from
// every server that does not cover the user (it always runs through the
// user's best covering link), so hit list (m, i) is
//   D_{m,i}  ∪  (R_i \ Cov_m)
// where D_{m,i} holds the users m covers and reaches over the direct Eq. 4
// link, R_i the users whose best covering link passes Eq. 5 for model i, and
// Cov_m the users m covers. R_i's entries are stored once per model in a
// shared pool, and list (m, i) is a precomputed sequence of runs over it
// that yields the list in ascending user order. A covered user in both D
// and R_i reads its R_i entry (same user, same mass), so only the
// disagreements between D_{m,i} and R_i ∩ Cov_m become slot events: a
// direct entry spliced into R_i, or a hole cut out of it. A list whose runs
// would average fewer than 16 entries is copied into one run instead: a run
// boundary costs about as much to read as a dozen entries.
//
// Construction is one user-major pass over each user's covering span and
// requested models, then one pass over the (m, i) slots:
// O(M·K + M·I + Σ_k |span_k|·rows_k). Storage is
// O(M·K + M·I + Σ_i |R_i| + E), E ≤ |D| + Σ_i |R_i ∩ Cov| the slot events:
// the M·K link snapshot, one offset and one size per (m, i), the pool and
// the runs. At the fig8 100× point that is about 100 k pooled entries and
// 1.08 runs per list (≈3.7 MB in all), against the 4.6 M entries (74 MB) of
// a list per (m, i) with the relay users copied into it.
//
// Sub-views (the tiling engine, sim/tiler.h): the second constructor
// restricts the instance to explicit server/user subsets while *sharing* the
// topology / library / requests storage — nothing is copied or re-sampled.
// All PlacementProblem indices (ServerId / UserId) are then view-local;
// global_server() / global_user() translate back. The model axis is never
// restricted: every view sees the full library. Algorithms are oblivious to
// views — they only consume local dimensions, hit lists and capacities.
//
// The problem borrows (does not own) topology / library / requests; keep
// them alive for the problem's lifetime (sim::Scenario does).
#pragma once

#include <cstdint>
#include <iterator>
#include <span>
#include <vector>

#include "src/model/model_library.h"
#include "src/support/ids.h"
#include "src/support/units.h"
#include "src/wireless/topology.h"
#include "src/workload/request_model.h"

namespace trimcaching::core {

struct HitEntry {
  UserId user = 0;  ///< view-local user id
  double mass = 0.0;  ///< p_{k,i}
};

/// One run of a hit list: the entries [first, last) of the problem's shared
/// entry pool.
struct HitRun {
  std::uint32_t first = 0;
  std::uint32_t last = 0;
};

/// Hit list (m, i) as a read-only range of HitEntry, ascending by
/// view-local user: a short sequence of non-empty runs over the problem's
/// shared entry pool. Iteration is a pointer walk with one extra step per
/// run.
class HitList {
 public:
  class iterator {
   public:
    iterator(const HitEntry* pool, std::span<const HitRun> runs)
        : pool_(pool), run_(runs.data()), runs_end_(runs.data() + runs.size()) {
      next_run();
    }

    const HitEntry& operator*() const { return *cur_; }
    const HitEntry* operator->() const { return cur_; }
    iterator& operator++() {
      if (++cur_ == run_end_) next_run();
      return *this;
    }
    friend bool operator==(const iterator& it, std::default_sentinel_t) {
      return it.cur_ == nullptr;
    }

   private:
    // Runs are never empty, so one step always lands on an entry.
    void next_run() {
      if (run_ == runs_end_) {
        cur_ = nullptr;
        return;
      }
      cur_ = pool_ + run_->first;
      run_end_ = pool_ + run_->last;
      ++run_;
    }

    const HitEntry* pool_ = nullptr;
    const HitRun* run_ = nullptr;
    const HitRun* runs_end_ = nullptr;
    const HitEntry* cur_ = nullptr;  // nullptr once past the last run
    const HitEntry* run_end_ = nullptr;
  };

  HitList(const HitEntry* pool, std::span<const HitRun> runs, std::size_t size)
      : pool_(pool), runs_(runs), size_(size) {}

  [[nodiscard]] iterator begin() const { return iterator(pool_, runs_); }
  [[nodiscard]] std::default_sentinel_t end() const noexcept { return {}; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

 private:
  const HitEntry* pool_;
  std::span<const HitRun> runs_;
  std::size_t size_;
};

class PlacementProblem {
 public:
  /// Full instance over every server and user of the topology.
  PlacementProblem(const wireless::NetworkTopology& topology,
                   const model::ModelLibrary& library,
                   const workload::RequestModel& requests);

  /// Sub-view over `servers` x `users` (strictly increasing global ids).
  /// Eligibility still uses the *global* association and rates — a view
  /// server can relay through covering servers outside the view — so
  /// within-view decisions match the full instance exactly.
  PlacementProblem(const wireless::NetworkTopology& topology,
                   const model::ModelLibrary& library,
                   const workload::RequestModel& requests,
                   std::vector<ServerId> servers, std::vector<UserId> users);

  [[nodiscard]] std::size_t num_servers() const noexcept { return num_servers_; }
  [[nodiscard]] std::size_t num_users() const noexcept { return num_users_; }
  [[nodiscard]] std::size_t num_models() const noexcept { return num_models_; }

  /// True when this instance is a server/user sub-view.
  [[nodiscard]] bool is_view() const noexcept { return is_view_; }
  /// Global topology id of view-local server m (identity on full instances).
  [[nodiscard]] ServerId global_server(ServerId m) const { return server_ids_.at(m); }
  /// Global topology id of view-local user k (identity on full instances).
  [[nodiscard]] UserId global_user(UserId k) const { return user_ids_.at(k); }

  [[nodiscard]] const wireless::NetworkTopology& topology() const noexcept {
    return *topology_;
  }
  [[nodiscard]] const model::ModelLibrary& library() const noexcept { return *library_; }
  /// The request model. NOTE: index it with global_user(), not raw local
  /// ids — views share the *global* model.
  [[nodiscard]] const workload::RequestModel& requests() const noexcept {
    return *requests_;
  }

  [[nodiscard]] support::Bytes capacity(ServerId m) const {
    return topology_->capacity(global_server(m));
  }

  /// Per-server inference compute capacity C_m (abstract units); +inf for
  /// the classic storage-only problem. Snapshotted per view-local server at
  /// construction so hot loops avoid the topology indirection.
  [[nodiscard]] double compute_capacity(ServerId m) const {
    return compute_caps_.at(m);
  }

  /// True when any server in this instance has a finite compute capacity —
  /// the switch between the storage-only objective (Eq. 2/3) and the joint
  /// caching + compute objective. False by default, keeping every legacy
  /// path bit-identical.
  [[nodiscard]] bool compute_constrained() const noexcept { return compute_constrained_; }

  /// Compute cost c_{k,i} of one inference of model i for view-local user k
  /// (abstract units). The expected load a served request adds to its
  /// holder's budget is p_{k,i} · c_{k,i}. Throws std::out_of_range when
  /// p_{k,i} = 0 (workload::RequestModel keeps QoS for requested pairs only).
  [[nodiscard]] double compute_cost(UserId k, ModelId i) const {
    return requests_->compute_cost(global_user(k), i);
  }

  /// p_{k,i} for view-local user k.
  [[nodiscard]] double request_probability(UserId k, ModelId i) const {
    return requests_->probability(global_user(k), i);
  }

  /// I1(m,k,i): can server m serve user k's request for model i in time?
  /// False for a pair user k never requests (p_{k,i} = 0).
  [[nodiscard]] bool eligible(ServerId m, UserId k, ModelId i) const;

  /// Low-level flat link views for batched eligibility sweeps
  /// (core::greedy_refill's inverted gain build): row m holds, per
  /// view-local user k, 1/C̄ of the delivery path — direct when
  /// associations(m)[k] is set, user k's best covering relay otherwise,
  /// +inf when no positive-rate path exists. Latency of payload D is then
  /// bits(D) · inv (direct) or bits(D) / backhaul_bps() + bits(D) · inv
  /// (relayed), matching eligible() bit for bit.
  [[nodiscard]] std::span<const double> inverse_effective_rates(ServerId m) const;
  [[nodiscard]] std::span<const char> associations(ServerId m) const;
  /// bits(D_i) of model i's payload.
  [[nodiscard]] double payload_bits(ModelId i) const { return payload_bits_.at(i); }
  [[nodiscard]] double backhaul_bps() const noexcept { return backhaul_bps_; }

  /// Users servable by placing model i on server m, with their request
  /// mass, ascending by view-local user — every objective and solver sums
  /// over this order. size() and empty() are O(1).
  [[nodiscard]] HitList hit_list(ServerId m, ModelId i) const;

  /// Σ_k Σ_i p_{k,i} over this instance's users — the denominator of U(X).
  [[nodiscard]] double total_mass() const noexcept { return total_mass_; }

  /// Mass of requests servable by at least one server (the coverage ceiling
  /// on the achievable hit mass; used by bound computations).
  [[nodiscard]] double reachable_mass() const noexcept { return reachable_mass_; }

 private:
  void build();

  const wireless::NetworkTopology* topology_;
  const model::ModelLibrary* library_;
  const workload::RequestModel* requests_;

  std::size_t num_servers_;
  std::size_t num_users_;
  std::size_t num_models_;
  bool is_view_ = false;
  std::vector<ServerId> server_ids_;  // local -> global
  std::vector<UserId> user_ids_;      // local -> global

  // Per-(m, k) delivery precomputation (local M x K): `assoc_` says whether
  // the pair is associated; `inv_eff_` is 1/C̄ of the direct link when it is,
  // and 1/C̄ of user k's best covering relay when it is not (+inf when no
  // positive-rate path exists). Latency of payload D is then
  //   assoc:  bits(D) · inv_eff
  //   relay:  bits(D) / backhaul + bits(D) · inv_eff      (Eq. 5)
  // matching sim::EvalPlan's arithmetic bit for bit.
  std::vector<double> inv_eff_;
  std::vector<char> assoc_;
  std::vector<double> payload_bits_;  // per model
  double backhaul_bps_ = 0.0;
  std::vector<double> compute_caps_;  // per local server; +inf = unconstrained
  bool compute_constrained_ = false;

  // Factored hit lists (see the file comment). `pool_` holds the relay
  // entries, grouped per model, followed by each (m, i) slot's spliced
  // direct entries or copied list; list (m, i) is the runs
  // runs_[run_offsets_[m·I + i], run_offsets_[m·I + i + 1]) over it.
  std::vector<HitEntry> pool_;
  std::vector<HitRun> runs_;
  std::vector<std::size_t> run_offsets_;   // M·I + 1
  std::vector<std::uint32_t> list_sizes_;  // per (m, i)
  double total_mass_ = 0.0;
  double reachable_mass_ = 0.0;
};

}  // namespace trimcaching::core
