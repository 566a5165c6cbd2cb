#include "src/sim/replacement.h"

#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "src/core/solver_registry.h"
#include "src/sim/evaluator.h"
#include "src/support/timing.h"

namespace trimcaching::sim {

void MobilityStudyConfig::validate() const {
  const auto fail = [](const std::string& what) {
    throw std::invalid_argument("MobilityStudyConfig: " + what);
  };
  if (!std::isfinite(slot_seconds) || slot_seconds <= 0) {
    fail("slot_seconds must be finite and > 0");
  }
  if (eval_every_slots == 0) fail("eval_every_slots must be > 0");
  const std::pair<double, const char*> fractions[] = {
      {pedestrian_fraction, "pedestrian_fraction"},
      {bike_fraction, "bike_fraction"},
      {vehicle_fraction, "vehicle_fraction"}};
  for (const auto& [value, name] : fractions) {
    if (!std::isfinite(value) || value < 0) {
      fail(std::string(name) + " must be finite and >= 0");
    }
  }
  if (pedestrian_fraction + bike_fraction + vehicle_fraction <= 0) {
    fail("the mobility fractions must not all be 0");
  }
}

namespace {

using support::WallClock;
using support::seconds_since;

// One evaluated slot's topology update: the mobility step's positions
// replace the old ones (association and link views recompute; the
// Evaluator then refreshes its plan's link arrays and keeps its rows).
void update_topology(wireless::NetworkTopology& topology,
                     const mobility::MobilityModel& mobility,
                     MobilityStudyTelemetry& telemetry) {
  const auto start = WallClock::now();
  topology.update_user_positions(mobility.positions());
  telemetry.topology_update_seconds += seconds_since(start);
  ++telemetry.topology_updates;
}

// Records the t = 0 plan build apart and restarts the Evaluator's counters,
// so the per-slot telemetry holds pure per-slot maintenance.
void start_slots(const Evaluator& evaluator, MobilityStudyTelemetry& telemetry) {
  telemetry.initial_plan_build_seconds = evaluator.plan_stats().build_seconds;
  evaluator.reset_plan_stats();
}

// Folds the Evaluator's per-slot plan counters into the run telemetry.
void finish_telemetry(const Evaluator& evaluator, MobilityStudyTelemetry& telemetry,
                      MobilityStudyTelemetry* out) {
  const PlanMaintenanceStats& stats = evaluator.plan_stats();
  telemetry.plan_builds = stats.builds;
  telemetry.plan_refreshes = stats.refreshes;
  telemetry.plan_build_seconds = stats.build_seconds;
  telemetry.plan_refresh_seconds = stats.refresh_seconds;
  if (out != nullptr) *out = telemetry;
}

// Per-slot fading base: fading_hit_ratio derives its realizations
// counter-based from the base Rng (it no longer advances it), so each time
// slot must get its own base for slot-to-slot channel independence. Within
// a slot the base is shared, which scores competing placements under
// identical channel draws.
//
// Batching: the Evaluator refreshes its EvalPlan at most once per slot (the
// topology revision moves only at update_user_positions), and every
// placement scored within the slot shards its realizations over
// config.threads pool workers — the studies' evaluation path is the same
// realization-sharded arena as the Monte-Carlo driver's, not a serial loop.
double evaluate(const Evaluator& evaluator, const core::PlacementSolution& placement,
                const MobilityStudyConfig& config, const support::Rng& slot_rng) {
  if (config.fading_realizations == 0) {
    return evaluator.expected_hit_ratio(placement);
  }
  return evaluator
      .fading_hit_ratio(placement, config.fading_realizations, slot_rng,
                        config.threads)
      .mean;
}

}  // namespace

std::vector<MobilityTracePoint> run_mobility_study(const ScenarioConfig& scenario_config,
                                                   const MobilityStudyConfig& config,
                                                   support::Rng& rng,
                                                   MobilityStudyTelemetry* telemetry) {
  config.validate();
  Scenario scenario = build_scenario(scenario_config, rng);
  const core::PlacementProblem problem = scenario.problem();
  // Independent contexts: a stochastic first solver must not perturb the
  // second solver's RNG stream.
  const auto& registry = core::SolverRegistry::instance();
  core::SolverContext first_context(rng.fork(501));
  core::SolverContext second_context(rng.fork(502));
  const core::PlacementSolution spec =
      registry.make(config.first_solver)->run(problem, first_context).placement;
  const core::PlacementSolution gen =
      registry.make(config.second_solver)->run(problem, second_context).placement;

  std::vector<mobility::MobilityClass> classes = mobility::assign_classes(
      scenario_config.num_users, config.pedestrian_fraction, config.bike_fraction,
      config.vehicle_fraction, rng);
  std::vector<wireless::Point> initial;
  initial.reserve(scenario_config.num_users);
  for (UserId k = 0; k < scenario_config.num_users; ++k) {
    initial.push_back(scenario.topology.user_position(k));
  }
  mobility::MobilityModel mobility(scenario.topology.area(), std::move(initial),
                                   std::move(classes), rng);

  const Evaluator evaluator(scenario.topology, scenario.library, scenario.requests);
  const support::Rng fading_master = rng.fork(600);
  MobilityStudyTelemetry run_telemetry;
  std::vector<MobilityTracePoint> trace;
  {
    const support::Rng slot_rng = fading_master.at(0, 0);
    trace.push_back(MobilityTracePoint{0.0, evaluate(evaluator, spec, config, slot_rng),
                                       evaluate(evaluator, gen, config, slot_rng)});
  }
  start_slots(evaluator, run_telemetry);
  for (std::size_t slot = 1; slot <= config.num_slots; ++slot) {
    mobility.step(config.slot_seconds, rng);
    if (slot % config.eval_every_slots != 0) continue;
    update_topology(scenario.topology, mobility, run_telemetry);
    const support::Rng slot_rng = fading_master.at(0, slot);
    trace.push_back(MobilityTracePoint{
        slot * config.slot_seconds / 60.0, evaluate(evaluator, spec, config, slot_rng),
        evaluate(evaluator, gen, config, slot_rng)});
  }
  finish_telemetry(evaluator, run_telemetry, telemetry);
  return trace;
}

ReplacementStudyResult run_replacement_study(const ScenarioConfig& scenario_config,
                                             const MobilityStudyConfig& config,
                                             const ReplacementPolicy& policy,
                                             support::Rng& rng,
                                             MobilityStudyTelemetry* telemetry) {
  config.validate();
  if (policy.degradation_threshold <= 0 || policy.degradation_threshold >= 1) {
    throw std::invalid_argument("run_replacement_study: threshold out of (0,1)");
  }
  Scenario scenario = build_scenario(scenario_config, rng);
  const auto solver = core::SolverRegistry::instance().make(policy.solver);
  core::SolverContext context(rng.fork(502));
  core::PlacementSolution placement =
      solver->run(scenario.problem(), context).placement;

  std::vector<mobility::MobilityClass> classes = mobility::assign_classes(
      scenario_config.num_users, config.pedestrian_fraction, config.bike_fraction,
      config.vehicle_fraction, rng);
  std::vector<wireless::Point> initial;
  initial.reserve(scenario_config.num_users);
  for (UserId k = 0; k < scenario_config.num_users; ++k) {
    initial.push_back(scenario.topology.user_position(k));
  }
  mobility::MobilityModel mobility(scenario.topology.area(), std::move(initial),
                                   std::move(classes), rng);

  const Evaluator evaluator(scenario.topology, scenario.library, scenario.requests);
  const support::Rng fading_master = rng.fork(600);
  MobilityStudyTelemetry run_telemetry;
  ReplacementStudyResult result;
  double reference = evaluate(evaluator, placement, config, fading_master.at(0, 0));
  result.trace.push_back(ReplacementTracePoint{0.0, reference, false});
  start_slots(evaluator, run_telemetry);

  for (std::size_t slot = 1; slot <= config.num_slots; ++slot) {
    mobility.step(config.slot_seconds, rng);
    if (slot % config.eval_every_slots != 0) continue;
    update_topology(scenario.topology, mobility, run_telemetry);
    const support::Rng slot_rng = fading_master.at(0, slot);
    double ratio = evaluate(evaluator, placement, config, slot_rng);
    bool replaced = false;
    if (ratio < (1.0 - policy.degradation_threshold) * reference) {
      // Same slot base: the old and new placement are judged under the
      // same channel draws.
      placement = solver->run(scenario.problem(), context).placement;
      ratio = evaluate(evaluator, placement, config, slot_rng);
      reference = ratio;
      replaced = true;
      ++result.replacements;
    }
    result.trace.push_back(
        ReplacementTracePoint{slot * config.slot_seconds / 60.0, ratio, replaced});
  }
  finish_telemetry(evaluator, run_telemetry, telemetry);
  return result;
}

}  // namespace trimcaching::sim
