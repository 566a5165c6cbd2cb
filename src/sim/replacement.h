// Mobility robustness study (Fig. 7) and the threshold-triggered model
// re-placement policy the paper sketches in §IV-A ("re-initiate model
// placement when the performance degrades to a certain threshold").
#pragma once

#include <string>
#include <vector>

#include "src/mobility/mobility.h"
#include "src/sim/scenario.h"
#include "src/support/rng.h"

namespace trimcaching::sim {

struct MobilityStudyConfig {
  double slot_seconds = 5.0;
  std::size_t num_slots = 1440;      ///< 2 h at 5 s slots
  std::size_t eval_every_slots = 12; ///< evaluate once per minute
  /// Mobility mix (normalized internally).
  double pedestrian_fraction = 1.0 / 3.0;
  double bike_fraction = 1.0 / 3.0;
  double vehicle_fraction = 1.0 / 3.0;
  /// 0 = evaluate with average rates (fast); otherwise Rayleigh realizations.
  std::size_t fading_realizations = 0;
  /// Per-slot evaluation thread count (0 = hardware concurrency): each
  /// slot's fading realizations are sharded over the pool. Combined with the
  /// Evaluator's revision-watching plan cache this batches a slot into one
  /// link-rate refresh plus realization-sharded scoring; results are
  /// bit-identical for any value.
  std::size_t threads = 0;
  /// Registry specs (core/solver_registry.h) of the two placements tracked
  /// by the study; the defaults reproduce the paper's Fig. 7 pairing.
  std::string first_solver = "spec";
  std::string second_solver = "gen";

  /// Throws std::invalid_argument naming the first bad knob: slot_seconds
  /// must be finite and > 0, eval_every_slots > 0, and each mobility
  /// fraction finite and >= 0 with a positive sum. Both studies call it
  /// before building anything.
  void validate() const;
};

/// Plan/topology maintenance telemetry of one mobility or replacement study
/// run: how the per-slot update-then-evaluate pipeline spent its wall-clock
/// keeping the evaluation arena fresh (solver and scoring time excluded).
/// The t = 0 plan build is reported apart from the per-slot counters: an
/// evaluated slot costs a topology update and a plan refresh (plan_builds
/// stays 0 unless a slot rebuilt its rows).
struct MobilityStudyTelemetry {
  std::size_t topology_updates = 0;         ///< evaluated slots with a position update
  double topology_update_seconds = 0.0;     ///< update_user_positions
  double initial_plan_build_seconds = 0.0;  ///< the t = 0 EvalPlan build
  std::size_t plan_builds = 0;              ///< EvalPlan constructions after t = 0
  std::size_t plan_refreshes = 0;           ///< EvalPlan::refresh calls
  double plan_build_seconds = 0.0;
  double plan_refresh_seconds = 0.0;

  /// Total per-slot maintenance wall-clock (topology update + plan upkeep).
  [[nodiscard]] double maintenance_seconds() const {
    return topology_update_seconds + plan_build_seconds + plan_refresh_seconds;
  }
  /// Mean maintenance wall-clock per evaluated slot (0 when none ran).
  [[nodiscard]] double per_slot_maintenance_seconds() const {
    return topology_updates == 0
               ? 0.0
               : maintenance_seconds() / static_cast<double>(topology_updates);
  }
};

struct MobilityTracePoint {
  double minutes = 0.0;
  /// Hit ratios of the two tracked placements (first_solver / second_solver;
  /// Spec and Gen under the default config).
  double spec_hit_ratio = 0.0;
  double gen_hit_ratio = 0.0;
};

/// Computes both configured placements on the initial snapshot, then holds
/// them fixed while users move, recording the achieved hit ratio over time.
/// When `telemetry` is non-null the plan-maintenance counters of the run
/// are written into it.
[[nodiscard]] std::vector<MobilityTracePoint> run_mobility_study(
    const ScenarioConfig& scenario_config, const MobilityStudyConfig& config,
    support::Rng& rng, MobilityStudyTelemetry* telemetry = nullptr);

struct ReplacementPolicy {
  /// Re-place when the current ratio falls below (1 - threshold) x the
  /// ratio measured right after the last placement.
  double degradation_threshold = 0.10;
  /// Registry spec of the solver used for (re-)placements.
  std::string solver = "gen";
};

struct ReplacementTracePoint {
  double minutes = 0.0;
  double hit_ratio = 0.0;
  bool replaced = false;  ///< a re-placement was triggered at this sample
};

struct ReplacementStudyResult {
  std::vector<ReplacementTracePoint> trace;
  std::size_t replacements = 0;
};

/// Same mobility trace, but with the §IV-A policy active (placements are
/// recomputed with the policy's solver whenever the threshold trips). When
/// `telemetry` is non-null the plan-maintenance counters of the run are
/// written into it.
[[nodiscard]] ReplacementStudyResult run_replacement_study(
    const ScenarioConfig& scenario_config, const MobilityStudyConfig& config,
    const ReplacementPolicy& policy, support::Rng& rng,
    MobilityStudyTelemetry* telemetry = nullptr);

}  // namespace trimcaching::sim
