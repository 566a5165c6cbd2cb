// Unified entry point for every placement algorithm.
//
// Each algorithm (TrimCaching Spec/Gen, Independent Caching, the exact P1.1
// solver, the literature baselines, local-search refinement) implements the
// one Solver interface: solve(problem, context) -> SolverOutcome. Consumers
// — the CLI, the Monte-Carlo driver, every figure bench — hold solvers
// polymorphically and never name a concrete algorithm; adding one is a
// single SolverRegistry registration (see solver_registry.h).
//
//   * SolverOutcome normalizes what every algorithm reports: the placement,
//     its hit ratio U(X) (Eq. 2), wall-clock time, and the algorithm's own
//     work counters (marginal-gain evaluations for the greedy family,
//     B&B nodes / DP combinations / local-search moves as `iterations`).
//   * SolverContext carries the cross-cutting inputs an algorithm may need:
//     a deterministic RNG (randomized baselines), an optional deadline
//     (checked at stage boundaries — composition skips refinement once
//     expired), and an instrumentation sink for progress events.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "src/core/placement.h"
#include "src/core/problem.h"
#include "src/support/rng.h"
#include "src/support/timing.h"

namespace trimcaching::core {

struct SolverOutcome {
  explicit SolverOutcome(PlacementSolution placement_in)
      : placement(std::move(placement_in)) {}

  PlacementSolution placement;
  double hit_ratio = 0.0;  ///< U(placement), Eq. 2

  /// Wall-clock seconds of the solve; filled by Solver::run().
  double wall_seconds = 0.0;

  /// Marginal-gain evaluations performed (greedy-family algorithms; 0 when
  /// the algorithm has no such notion).
  std::size_t gain_evaluations = 0;

  /// Algorithm-specific work counter: B&B nodes visited (exact), shared-block
  /// combinations traversed (Spec's DP), accepted moves (local search).
  std::size_t iterations = 0;

  /// Upper bound on the optimal hit ratio, when the algorithm proves one
  /// (the exact solver reports its own value: it *is* the optimum).
  std::optional<double> optimality_bound;
};

class SolverContext {
 public:
  explicit SolverContext(std::uint64_t seed = 0x5eed) : rng_(seed) {}
  explicit SolverContext(support::Rng rng) : rng_(std::move(rng)) {}

  [[nodiscard]] support::Rng& rng() noexcept { return rng_; }

  /// Arms a deadline `seconds` from now. Best-effort: solvers check it at
  /// stage boundaries (e.g. before a refinement pass), not per iteration.
  void set_deadline_after(double seconds);
  void clear_deadline() { deadline_.reset(); }
  [[nodiscard]] bool has_deadline() const noexcept { return deadline_.has_value(); }
  [[nodiscard]] bool expired() const;

  /// Optional instrumentation sink; solvers report coarse progress events
  /// ("refinement skipped: deadline expired", ...) through emit().
  std::function<void(std::string_view)> trace;
  void emit(std::string_view event) const {
    if (trace) trace(event);
  }

 private:
  support::Rng rng_;
  std::optional<support::WallClock::time_point> deadline_;
};

class Solver {
 public:
  virtual ~Solver() = default;

  /// Machine name: the registry key ("gen"), or the full composition for
  /// composed solvers ("spec+ls").
  [[nodiscard]] virtual std::string name() const = 0;

  /// Human-readable label for tables and reports ("TrimCaching Gen").
  [[nodiscard]] virtual std::string title() const = 0;

  [[nodiscard]] virtual SolverOutcome solve(const PlacementProblem& problem,
                                            SolverContext& context) const = 0;

  /// Refiners (local search) improve an existing placement; base algorithms
  /// return false and the registry rejects them on the right of a '+'.
  [[nodiscard]] virtual bool can_refine() const { return false; }

  /// Improves `initial` (never worsens it). Throws std::logic_error unless
  /// can_refine().
  [[nodiscard]] virtual SolverOutcome refine(const PlacementProblem& problem,
                                             const PlacementSolution& initial,
                                             SolverContext& context) const;

  /// Timed solve: forwards to solve() and stamps wall_seconds. This is the
  /// call every consumer should make; it replaces the per-call-site
  /// chrono bookkeeping the benches used to carry.
  [[nodiscard]] SolverOutcome run(const PlacementProblem& problem,
                                  SolverContext& context) const;
};

}  // namespace trimcaching::core
