// The expected cache-hit-ratio objective U(X) (Eq. 2) and an incremental
// coverage tracker for greedy marginal-gain computation.
//
// U(X) = Σ_{k,i} p_{k,i} · [ ∃m : x_{m,i} = 1 ∧ I1(m,k,i) = 1 ] / Σ_{k,i} p_{k,i}
//
// CoverageState maintains the set of already-served (k,i) pairs, so that the
// marginal gain of a candidate placement x_{m,i} is a single pass over the
// problem's hit list for (m,i). This is also exactly the paper's I2
// bookkeeping in the successive greedy decomposition (Eq. 11).
//
// One joint walk: the compute-constrained objective (evaluate_joint) is
// CoverageState::add applied in canonical order, so the solvers' commit walk
// and the evaluator are the same code. sim::Evaluator routes constrained
// topologies here; tests/property_test.cc checks it against an independent
// brute-force walk over eligible().
#pragma once

#include <stdexcept>
#include <vector>

#include "src/core/placement.h"
#include "src/core/problem.h"
#include "src/core/storage.h"
#include "src/support/parallel.h"

namespace trimcaching::core {

/// Evaluates U(X) from scratch (Eq. 2). On compute-constrained problems this
/// dispatches to the joint objective below (normalized hit mass of the
/// canonical assignment); on the default unconstrained problem it is the
/// classic storage-only union, summed in placement order (models_on): the
/// canonical order would round differently on some placements.
[[nodiscard]] double expected_hit_ratio(const PlacementProblem& problem,
                                        const PlacementSolution& placement);

/// Joint caching + inference-compute evaluation: the compute-constrained
/// extension of Eq. 2/3. A request (k, i) counts as served only when some
/// holder m has the bytes cached (x_{m,i} = 1, I1(m,k,i) = 1) *and* enough
/// compute headroom to run the expected inference load p_{k,i} · c_{k,i}.
///
/// Which holder serves which request is pinned by the *canonical assignment*:
/// walk servers m in ascending id order, models i in ascending id order
/// where x_{m,i} = 1, then the (m, i) hit list in ascending user order;
/// serve a still-uncovered pair iff load_m + p·c <= C_m, committing the
/// charge. It runs as CoverageState::add over that order. Feasibility
/// (server_loads[m] <= compute_capacity(m)) holds by construction. On an
/// unconstrained problem no charge is committed — every server_loads[m] is 0,
/// as CoverageState::server_load reports — and hit_mass is the storage-only
/// union summed in canonical order.
struct JointEvaluation {
  double hit_mass = 0.0;               ///< un-normalized served mass
  std::vector<double> server_loads;    ///< committed compute load per server
};
[[nodiscard]] JointEvaluation evaluate_joint(const PlacementProblem& problem,
                                             const PlacementSolution& placement);

/// Coverage tracker with *removal* support: per-(k,i) cover counts instead
/// of booleans. Used by search procedures that backtrack or undo placements
/// (exact branch-and-bound, local-search swaps). Slightly heavier than
/// CoverageState, which greedy-only algorithms should prefer.
class CountedCoverage {
 public:
  explicit CountedCoverage(const PlacementProblem& problem);

  /// Registers placement x_{m,i} = 1, incrementing cover counts.
  void add(ServerId m, ModelId i);

  /// Registers every placement of `placement` (the fixed partial placement a
  /// repair pass or incremental gain sweep starts from).
  void add_placement(const PlacementSolution& placement);

  /// Unregisters a previously-added placement; counts must not go negative.
  void remove(ServerId m, ModelId i);

  /// Un-normalized marginal hit mass of adding (m, i) now.
  [[nodiscard]] double marginal_mass(ServerId m, ModelId i) const;

  /// Un-normalized hit mass lost if (m, i) were removed now.
  [[nodiscard]] double removal_loss(ServerId m, ModelId i) const;

  [[nodiscard]] bool covered(UserId k, ModelId i) const;
  [[nodiscard]] double hit_mass() const noexcept { return hit_mass_; }
  [[nodiscard]] double hit_ratio() const;

 private:
  const PlacementProblem* problem_;
  /// Dense I x K, model-major: every hit-list pass walks one contiguous
  /// user row instead of striding by I through the whole array.
  std::vector<std::int32_t> counts_;
  double hit_mass_ = 0.0;
};

/// Greedy-only coverage tracker. On compute-constrained problems it is
/// compute-aware: marginal_mass(m, i) simulates serving the still-uncovered
/// hit-list entries against server m's remaining compute headroom (entries
/// that do not fit contribute nothing), and add(m, i) commits the same
/// walk's charges to m's load. Gains therefore stay monotone-decreasing in
/// the add sequence — growing loads only shrink future gains — so lazy
/// greedy drivers remain sound under the joint constraint. Unconstrained
/// problems take the original branch-free path, bit-identical to before.
class CoverageState {
 public:
  explicit CoverageState(const PlacementProblem& problem);

  /// Un-normalized marginal hit mass of setting x_{m,i} = 1.
  [[nodiscard]] double marginal_mass(ServerId m, ModelId i) const;

  /// Marginal gain in hit *ratio* (mass divided by total mass).
  [[nodiscard]] double marginal_gain(ServerId m, ModelId i) const;

  /// Commits x_{m,i} = 1, marking all its newly-served (k, i) pairs covered.
  void add(ServerId m, ModelId i);

  /// True if user k's request for model i is already served.
  [[nodiscard]] bool covered(UserId k, ModelId i) const;

  /// Compute charge Σ p·c the still-uncovered entries of (m, i) would ask of
  /// server m if all of them were served (no cap test) — the optimistic
  /// per-model compute weight the Spec DP's second knapsack dimension uses.
  /// 0 on unconstrained problems.
  [[nodiscard]] double uncovered_compute_load(ServerId m, ModelId i) const;

  /// Compute load committed to server m so far (0 when unconstrained).
  [[nodiscard]] double server_load(ServerId m) const;

  [[nodiscard]] double hit_mass() const noexcept { return hit_mass_; }
  [[nodiscard]] double hit_ratio() const;

 private:
  const PlacementProblem* problem_;
  std::vector<char> covered_;  // dense I x K, model-major (see CountedCoverage)
  std::vector<double> loads_;  // per server; empty when unconstrained
  bool compute_constrained_ = false;
  double hit_mass_ = 0.0;
};

/// Sentinel gain of a candidate the batched sweep skipped (already placed,
/// or does not fit the server's remaining dedup capacity).
inline constexpr double kSkippedCandidate = -1.0;

/// Batched incremental per-server gain deltas against a fixed partial
/// placement: for position p in `servers` and every model i, writes
/// gains[p * I + i] = marginal hit mass of adding (servers[p], i) to
/// `coverage`, or kSkippedCandidate when the pair is already placed or does
/// not fit storage[p]. Sharding is per server — shard p writes only its own
/// row — so results are bit-identical for every thread count; consumers run
/// their selection as an ordered serial reduction over the filled array
/// (trimcaching_gen's naive driver; core::greedy_refill's heap build uses
/// the same shape with its own skip rules). `Coverage` is CoverageState or
/// CountedCoverage (both expose marginal_mass).
template <typename Coverage>
void batched_marginal_masses(const PlacementProblem& problem, const Coverage& coverage,
                             const PlacementSolution& placement,
                             const std::vector<ServerStorage>& storage,
                             const std::vector<ServerId>& servers,
                             std::size_t threads, std::vector<double>& gains) {
  if (storage.size() != servers.size()) {
    throw std::invalid_argument(
        "batched_marginal_masses: storage/servers size mismatch");
  }
  const std::size_t num_models = problem.num_models();
  // resize, not assign: the loop below writes every slot unconditionally,
  // and per-round callers (run_naive) reuse the vector.
  gains.resize(servers.size() * num_models);
  support::parallel_for(servers.size(), threads, [&](std::size_t p) {
    const ServerId m = servers[p];
    for (ModelId i = 0; i < num_models; ++i) {
      gains[p * num_models + i] = placement.placed(m, i) || !storage[p].fits(i)
                                      ? kSkippedCandidate
                                      : coverage.marginal_mass(m, i);
    }
  });
}

}  // namespace trimcaching::core
