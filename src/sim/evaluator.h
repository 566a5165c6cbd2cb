// Hit-ratio evaluation of a fixed placement.
//
// The placement algorithms decide on *average* channel gains; following
// §VII-A, the achieved cache hit ratio is then measured over Rayleigh
// block-fading realizations (≥10³ in the paper): per realization every
// associated (server, user) link draws an i.i.d. |h|² ~ Exp(1) power gain
// and a request (k,i) is a hit if any server holding model i can deliver it
// within T̄_{k,i} - t_{k,i} under the realized rates (direct, Eq. 4, or
// relayed through the best covering server, Eq. 5).
//
// Evaluator is a thin façade over the flat EvalPlan arena (eval_plan.h): it
// lazily builds one plan on first use and keeps it fresh across topology
// revisions:
//
//   * placement-only changes never touch the topology revision, so they
//     never invalidate the plan — evaluating any number of different
//     placements costs exactly one build (plan_stats().builds counts them;
//     tests/eval_delta_test.cc locks this in);
//   * when the revision has moved (mobility, availability masks, derating),
//     the plan's link arrays are refreshed in place with EvalPlan::refresh
//     — once per observed revision, however many revisions passed since the
//     last call — and its request rows are kept, so the plan is built
//     exactly once per Evaluator.
//
// On a compute-constrained topology, expected_hit_ratio is the joint caching +
// compute objective, and the Evaluator returns core::expected_hit_ratio over
// a core::PlacementProblem of the current snapshot — the one canonical joint
// walk (core::evaluate_joint). That problem is built lazily, once per
// topology revision, like the plan; it never touches the plan.
//
// plan_stats() exposes counts and wall-clock of the build and the refreshes
// for the mobility benches. The lazy cache makes the façade non-thread-safe:
// share an Evaluator within one thread only (fading_hit_ratio itself fans
// out internally).
#pragma once

#include <cstdint>
#include <memory>

#include "src/core/placement.h"
#include "src/core/problem.h"
#include "src/model/model_library.h"
#include "src/sim/eval_plan.h"
#include "src/support/rng.h"
#include "src/support/stats.h"
#include "src/wireless/topology.h"
#include "src/workload/request_model.h"

namespace trimcaching::sim {

/// Counters/timers of the Evaluator's plan-maintenance paths.
struct PlanMaintenanceStats {
  std::size_t builds = 0;        ///< EvalPlan constructions (rows + links)
  std::size_t refreshes = 0;     ///< EvalPlan::refresh calls (links only)
  double build_seconds = 0.0;    ///< wall-clock spent in builds
  double refresh_seconds = 0.0;  ///< wall-clock spent in refreshes
  /// Placement-lowering cache traffic of expected_hit_ratio and
  /// fading_hit_ratio calls through this Evaluator: rebuilds vs
  /// revision-keyed reuses (EvalPlan::lowering_*).
  std::uint64_t lowering_builds = 0;
  std::uint64_t lowering_hits = 0;
};

class Evaluator {
 public:
  Evaluator(const wireless::NetworkTopology& topology,
            const model::ModelLibrary& library,
            const workload::RequestModel& requests);

  /// Expected hit ratio under average rates (Eq. 2 recomputed from the
  /// topology's current user positions). Compute-constrained topologies get
  /// the joint objective of core::expected_hit_ratio (see the file comment).
  [[nodiscard]] double expected_hit_ratio(const core::PlacementSolution& placement) const;

  /// Monte-Carlo hit ratio over Rayleigh fading realizations, sharded over
  /// up to `threads` workers (0 = hardware concurrency). Bit-identical for
  /// any thread count; `rng` is not advanced — realization r draws from a
  /// counter-based stream keyed on (rng seed, kFadingStream, r), so
  /// evaluating several placements against the same base Rng compares them
  /// under identical channel draws. The gain transform dispatches to the
  /// widest available SIMD backend at runtime (EvalPlan's header comment).
  [[nodiscard]] support::Summary fading_hit_ratio(
      const core::PlacementSolution& placement, std::size_t realizations,
      const support::Rng& rng, std::size_t threads = 1) const;

  /// The plan for the topology's current snapshot (built on first use,
  /// refreshed when the revision moved; untouched by placement-only
  /// changes).
  [[nodiscard]] const EvalPlan& plan() const;

  /// Cumulative plan-maintenance counters since construction (or the last
  /// reset). Mutated lazily by plan().
  [[nodiscard]] const PlanMaintenanceStats& plan_stats() const noexcept {
    return stats_;
  }
  void reset_plan_stats() const noexcept { stats_ = PlanMaintenanceStats{}; }

 private:
  const wireless::NetworkTopology* topology_;
  const model::ModelLibrary* library_;
  const workload::RequestModel* requests_;
  mutable std::unique_ptr<EvalPlan> plan_;
  mutable PlanMaintenanceStats stats_;
  /// The joint objective's problem for topology revision problem_revision_
  /// (compute-constrained topologies only; rebuilt when the revision moves).
  mutable std::unique_ptr<core::PlacementProblem> problem_;
  mutable std::uint64_t problem_revision_ = 0;
};

}  // namespace trimcaching::sim
