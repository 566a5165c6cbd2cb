#include "src/sim/evaluator.h"

#include <stdexcept>

#include "src/core/objective.h"
#include "src/support/timing.h"

namespace trimcaching::sim {

using support::seconds_since;
using Clock = support::WallClock;

namespace {

/// Runs `call` on `plan` and folds the plan's lowering-counter increments
/// into `stats`. The stats accumulate per-call increments, so
/// reset_plan_stats() restarts them without touching the plan.
template <typename Call>
auto counting_lowerings(const EvalPlan& plan, PlanMaintenanceStats& stats,
                        const Call& call) {
  const std::uint64_t builds_before = plan.lowering_builds();
  const std::uint64_t hits_before = plan.lowering_hits();
  const auto result = call(plan);
  stats.lowering_builds += plan.lowering_builds() - builds_before;
  stats.lowering_hits += plan.lowering_hits() - hits_before;
  return result;
}

}  // namespace

Evaluator::Evaluator(const wireless::NetworkTopology& topology,
                     const model::ModelLibrary& library,
                     const workload::RequestModel& requests)
    : topology_(&topology), library_(&library), requests_(&requests) {
  if (requests.num_users() != topology.num_users() ||
      requests.num_models() != library.num_models()) {
    throw std::invalid_argument("Evaluator: dimension mismatch");
  }
}

const EvalPlan& Evaluator::plan() const {
  if (!plan_) {
    const auto start = Clock::now();
    plan_ = std::make_unique<EvalPlan>(*topology_, *library_, *requests_);
    stats_.build_seconds += seconds_since(start);
    ++stats_.builds;
  } else if (plan_->topology_revision() != topology_->revision()) {
    const auto start = Clock::now();
    plan_->refresh(*topology_);
    stats_.refresh_seconds += seconds_since(start);
    ++stats_.refreshes;
  }
  return *plan_;
}

double Evaluator::expected_hit_ratio(const core::PlacementSolution& placement) const {
  if (topology_->compute_constrained()) {
    const std::uint64_t revision = topology_->revision();
    if (!problem_ || problem_revision_ != revision) {
      problem_ = std::make_unique<core::PlacementProblem>(*topology_, *library_,
                                                          *requests_);
      problem_revision_ = revision;
    }
    return core::expected_hit_ratio(*problem_, placement);
  }
  return counting_lowerings(plan(), stats_, [&](const EvalPlan& current) {
    return current.expected_hit_ratio(placement);
  });
}

support::Summary Evaluator::fading_hit_ratio(const core::PlacementSolution& placement,
                                             std::size_t realizations,
                                             const support::Rng& rng,
                                             std::size_t threads) const {
  return counting_lowerings(plan(), stats_, [&](const EvalPlan& current) {
    return current.fading_hit_ratio(placement, realizations, rng, threads);
  });
}

}  // namespace trimcaching::sim
