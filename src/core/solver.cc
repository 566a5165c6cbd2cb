#include "src/core/solver.h"

#include <stdexcept>

#include "src/core/objective.h"

namespace trimcaching::core {

void SolverContext::set_deadline_after(double seconds) {
  if (seconds < 0) {
    throw std::invalid_argument("SolverContext: negative deadline");
  }
  deadline_ = support::WallClock::now() +
              std::chrono::duration_cast<support::WallClock::duration>(
                  std::chrono::duration<double>(seconds));
}

bool SolverContext::expired() const {
  return deadline_.has_value() && support::WallClock::now() >= *deadline_;
}

SolverOutcome Solver::refine(const PlacementProblem& /*problem*/,
                             const PlacementSolution& /*initial*/,
                             SolverContext& /*context*/) const {
  throw std::logic_error("Solver '" + name() + "' cannot refine a placement");
}

SolverOutcome Solver::run(const PlacementProblem& problem,
                          SolverContext& context) const {
  const auto start = support::WallClock::now();
  SolverOutcome outcome = solve(problem, context);
  outcome.wall_seconds = support::seconds_since(start);
  if (problem.compute_constrained()) {
    // Honesty seam of the joint objective: whatever an algorithm's internal
    // (greedy-order) bookkeeping claimed, the reported score is the canonical
    // compute-feasible assignment of the final placement.
    outcome.hit_ratio = expected_hit_ratio(problem, outcome.placement);
  }
  return outcome;
}

}  // namespace trimcaching::core
