// EvalPlan: the flat evaluation arena behind sim::Evaluator.
//
// The paper's headline numbers average each placement over >= 10^3 Rayleigh
// fading realizations (§VII-A), which made the evaluator the scaling
// bottleneck: the legacy path chased topology objects and allocated a fresh
// nested gain matrix per realization. An EvalPlan lowers everything the hit
// test needs into CSR-style arrays of two kinds:
//
//   * per user, a contiguous span of *request rows* (model, probability and
//     the row's two hit thresholds), pre-filtered to p > 0 and positive
//     deadline slack. Rows depend on the library and the request model only,
//     never on user positions or server availability, so they are built once
//     per plan;
//   * per user, a contiguous *link span* over the covering servers (M_k)
//     carrying the bandwidth share, mean SNR and average inverse rate — a
//     realization's rate is just bw * log2(1 + snr * |h|^2). These are plain
//     copies of the topology's flat views taken by refresh().
//
// Both expected_hit_ratio (Eq. 2, storage-only) and fading_hit_ratio then
// reduce to tight loops over these arrays with one reusable per-thread
// inverse-rate scratch buffer — no per-realization allocation. The plan holds
// only what that storage/fading hit kernel reads: the joint caching + compute
// objective is core::evaluate_joint's walk, which sim::Evaluator routes to on
// compute-constrained topologies.
//
// Determinism contract: realization r draws its gains from the key
// rng.stream_key(kFadingStream, r), which depends only on the base Rng's
// seed — never on call order or thread count. Hence
// fading_hit_ratio(threads = N) is bit-identical to threads = 1, and every
// caller handing the same base Rng to several placements compares them under
// identical channel draws. Realization means are reduced in index order.
//
// Topology revisions: the link arrays are a snapshot of one
// NetworkTopology::revision(). Every revision — update_user_positions
// (mobility), set_availability masks and derating alike — goes through one
// refresh() that re-copies the link views (O(links)) and drops the cached
// placement lowering, whose link indices it invalidates; the request rows
// are kept. A refreshed plan is bit-identical to one built from scratch on
// the same topology, and owns its arrays, so it never dangles when the
// topology changes or dies. sim::Evaluator builds its plan once and
// refreshes it whenever the topology's revision has moved.
//
// Hit test: expected_hit_ratio (Eq. 2, storage-only) and fading_hit_ratio
// share one kernel. The placement is lowered once (cached across calls,
// keyed on PlacementSolution::revision()) into a compact user-major SoA of
// the active request rows with their covering holder-link lists, and Eq. 4/5
// is decided per row over one per-link inverse-rate array: the average
// rates for Eq. 2, one realization's rates for fading. Both latency tests
// are monotone in the inverse rate, so each row carries two thresholds
// precomputed at plan build (direct_threshold / relay_threshold below) and
// a row hits iff min over its holder links <= theta_direct (Eq. 4) or the
// user's best covering link <= theta_relay (Eq. 5) — one compare each, no
// per-lane branch, no division, and the same decision as the latency
// arithmetic bit for bit. Fading runs in blocks of 16 realizations held in
// one link-major block [link * 16 + lane]: the runtime-dispatched backend of
// support/simd.h draws each (link, lane) gain from (realization key, link)
// alone straight into the block (the integer stream is identical on every
// SIMD backend) and transforms it in place to an inverse rate, and the hit
// pass walks the rows once per block. The hit pass is one template over
// the GCC vector type, instantiated at the baseline ISA (8 x two-lane
// Vec2d) and inside an AVX2 target function (4 x four-lane Vec4d), and
// picked by simd::active_backend(). Every lane op in both is the same IEEE
// min, compare or masked add, so the hit decision is bit-exact across
// instantiations and backends given identical inverse rates; summaries may
// differ across backends by transcendental rounding only (see simd.h's
// contract), and the scalar backend (simd::force_backend(kScalar)) is the
// cross-machine reference.
//
// Scratch: one 16 x links block per thread in the WorkerArena
// (support/parallel.h) — reused across blocks, shrunk when a small scenario
// follows a huge one. The link arrays are plain vectors: the fading pass
// shards realizations, so every worker streams every link.
#pragma once

#include <cstdint>
#include <vector>

#include "src/core/placement.h"
#include "src/model/model_library.h"
#include "src/support/ids.h"
#include "src/support/rng.h"
#include "src/support/stats.h"
#include "src/wireless/topology.h"
#include "src/workload/request_model.h"

namespace trimcaching::sim {

/// Stream tag for the counter-based per-realization fading derivation.
inline constexpr std::uint64_t kFadingStream = 0xFADEull;

/// Eq. 4 threshold of one request row: the largest finite x >= 0 with
/// `payload_bits * x <= budget_s`, or -1 when x = 0 already fails. IEEE
/// multiplication is monotone in x, so for any inverse rate inv (>= 0 or
/// +inf) the direct-download test holds iff inv <= the threshold. Exact
/// for finite budgets (pass(+inf) is then false).
[[nodiscard]] double direct_threshold(double payload_bits, double budget_s);

/// Eq. 5 threshold: the largest finite x >= 0 with
/// `payload_bits / backhaul_bps + payload_bits * x <= budget_s`, or -1 when
/// x = 0 already fails (the backhaul hop alone blows the budget). The relay
/// test through a best covering link of inverse rate inv holds iff inv <=
/// the threshold; +inf (no covering link) never passes.
[[nodiscard]] double relay_threshold(double payload_bits, double budget_s,
                                     double backhaul_bps);

class EvalPlan {
 public:
  /// Builds the request rows and snapshots the topology's current link
  /// views (refresh). Throws std::invalid_argument on dimension mismatches.
  EvalPlan(const wireless::NetworkTopology& topology,
           const model::ModelLibrary& library,
           const workload::RequestModel& requests);

  /// Re-copies the link arrays from `topology`'s current flat views and
  /// drops the cached placement lowering; the request rows stay. `topology`
  /// is the one the plan was built from, at any later revision (same
  /// servers, users and radio); mismatched dimensions throw
  /// std::invalid_argument.
  void refresh(const wireless::NetworkTopology& topology);

  [[nodiscard]] std::size_t num_users() const noexcept { return num_users_; }
  [[nodiscard]] std::size_t num_links() const noexcept { return link_server_.size(); }
  [[nodiscard]] std::size_t num_rows() const noexcept { return rows_.size(); }
  /// The NetworkTopology::revision() of the last refresh.
  [[nodiscard]] std::uint64_t topology_revision() const noexcept { return revision_; }

  /// Expected hit ratio under average rates: the storage-only Eq. 2 on this
  /// snapshot (compute capacities are not consulted; sim::Evaluator sends
  /// compute-constrained topologies to core::expected_hit_ratio instead).
  /// Maintains the placement-lowering cache (see fading_hit_ratio).
  [[nodiscard]] double expected_hit_ratio(const core::PlacementSolution& placement) const;

  /// Monte-Carlo hit ratio over Rayleigh fading realizations, sharded over
  /// up to `threads` pool workers (0 = hardware concurrency, 1 = inline).
  /// Bit-identical for any thread count; does not advance `rng`. Maintains
  /// the placement-lowering cache, so concurrent calls on the SAME EvalPlan
  /// are not safe (distinct plans, as the Monte-Carlo shards use, are fine).
  [[nodiscard]] support::Summary fading_hit_ratio(
      const core::PlacementSolution& placement, std::size_t realizations,
      const support::Rng& rng, std::size_t threads = 1) const;

  /// Placement-lowering cache counters: how many expected_hit_ratio /
  /// fading_hit_ratio calls rebuilt the lowering vs reused the cached one
  /// (keyed on PlacementSolution::revision(); invalidated by refresh).
  [[nodiscard]] std::uint64_t lowering_builds() const noexcept {
    return lowering_builds_;
  }
  [[nodiscard]] std::uint64_t lowering_hits() const noexcept {
    return lowering_hits_;
  }

 private:
  struct Row {
    ModelId model;
    double probability;
    double theta_direct;  ///< direct_threshold(payload bits, deadline slack)
    double theta_relay;   ///< relay_threshold(payload bits, slack, backhaul)
  };

  /// Per-call lowering of a placement against this arena: a compact
  /// user-major SoA over the *active* request rows (model placed somewhere)
  /// only. Per active row: the probability, the two thresholds of the hit
  /// compare, and the covering links that hold the row's model (indices into
  /// the flat link arrays, link order). theta_relay is -1 when no holder
  /// sits outside the user's coverage (the row is not Eq. 5 eligible). User
  /// k owns compact rows [user_offsets[k], user_offsets[k + 1]), in arena row
  /// order; row a owns holder_links[holder_offsets[a], holder_offsets[a + 1]).
  struct PlacementLowering {
    std::vector<std::uint32_t> holder_links;    ///< flat link indices
    std::vector<std::uint32_t> holder_offsets;  ///< size active rows + 1
    std::vector<std::uint32_t> user_offsets;    ///< size num_users + 1
    std::vector<double> probability;            ///< per active row
    std::vector<double> theta_direct;           ///< per active row
    std::vector<double> theta_relay;            ///< per active row; -1 = no relay
  };

  [[nodiscard]] PlacementLowering lower_placement(
      const core::PlacementSolution& placement) const;

  /// The cached lowering for `placement`, rebuilt when the placement's
  /// revision does not match the cached one (see lowering_builds/hits).
  [[nodiscard]] const PlacementLowering& lowered(
      const core::PlacementSolution& placement) const;

  /// The hit pass: kLaneBlock (16) realizations per row walk over
  /// link-major inverse rates (inv_blocked[link * 16 + lane]), on the AVX2
  /// instantiation when it is the active backend and the baseline one
  /// otherwise. Writes ratios[0..16); each lane is the hit ratio of that
  /// lane's own inverse-rate array.
  void hit_ratios(const PlacementLowering& lowering, const double* inv_blocked,
                  double* ratios) const;

  void check_placement(const core::PlacementSolution& placement) const;

  std::size_t num_users_ = 0;
  std::size_t num_servers_ = 0;
  std::size_t num_models_ = 0;
  std::uint64_t revision_ = 0;
  double total_mass_ = 0.0;

  // Request rows: user k owns [row_offsets_[k], row_offsets_[k+1]).
  // Position-independent, thresholds included: built once, kept by refresh.
  std::vector<std::size_t> row_offsets_;
  std::vector<Row> rows_;

  // Link spans: user k owns [link_offsets_[k], link_offsets_[k+1]).
  // Copied from the topology by refresh.
  std::vector<std::size_t> link_offsets_;
  std::vector<ServerId> link_server_;
  std::vector<double> link_bandwidth_hz_;
  std::vector<double> link_mean_snr_;
  std::vector<double> avg_inv_rate_;  ///< 1 / C̄, +inf where the rate is 0

  // Placement-lowering cache (the hit test's per-placement setup). A cached
  // revision of 0 means "empty" — PlacementSolution revisions are never 0.
  // refresh invalidates (link indices shift with the spans). mutable:
  // a cache behind a const evaluation API; see fading_hit_ratio's
  // thread-safety note.
  mutable PlacementLowering lowering_cache_;
  mutable std::uint64_t lowering_cache_revision_ = 0;
  mutable std::uint64_t lowering_builds_ = 0;
  mutable std::uint64_t lowering_hits_ = 0;
};

}  // namespace trimcaching::sim
