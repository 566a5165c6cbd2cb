// Fig. 7: cache hit ratio over 2 h of user mobility with a placement frozen
// at t = 0 (M = 10, K = 10, Q = 1 GB; pedestrian/bike/vehicle mix; 5 s
// slots). The paper reports only ~6.43% (Spec) / ~5.42% (Gen) degradation.
//
// Plan-maintenance instrumentation: every run drives the incremental
// evaluation engine (NetworkTopology::apply_user_moves ->
// EvalPlan::apply_delta), and one extra leg re-runs the first seed with the
// legacy monolithic path (update_user_positions -> full rebuild). The two
// traces must be bit-identical — a mismatch fails the bench — and the
// per-slot maintenance wall-clock of both paths lands in BENCH_runtime.json
// (merged next to fig6b's records; bench/bench_json.h schema) as
// fig7_<scale>_plan_full / fig7_<scale>_plan_delta, with the
// hardware-independent full/delta ratio in plan_update_speedup for the
// delta-path CI gate (bench/gates.txt).
//
//   ./fig7_mobility                      # paper scale (M=10, K=10)
//   ./fig7_mobility scale=100x threads=8 # fig8's 100x point (M=100, K=2000,
//                                        # I=1000), CI delta-path gate
//   ./fig7_mobility fading=200           # Rayleigh scoring per slot
#include <iostream>
#include <map>

#include "bench/bench_json.h"
#include "src/sim/experiment.h"
#include "src/sim/replacement.h"
#include "src/support/options.h"
#include "src/support/stats.h"
#include "src/support/table.h"

int main(int argc, char** argv) {
  using namespace trimcaching;

  const auto options = support::Options::parse(argc, argv);
  options.check_unknown({"threads", "fading", "scale", "runs"});
  const std::string scale = options.get_string("scale", "paper");

  sim::ScenarioConfig config;
  std::size_t default_runs = sim::full_scale_requested() ? 20 : 5;
  sim::MobilityStudyConfig mobility;
  mobility.num_slots = 1440;       // 2 h
  mobility.eval_every_slots = 120; // one sample every 10 min
  if (scale == "paper") {
    config.num_servers = 10;
    config.num_users = 10;
    config.capacity_bytes = support::gigabytes(1.0);
    config.library_kind = sim::LibraryKind::kSpecialCase;
    config.library_size = 30;
    config.special.models_per_family = 100;
  } else if (scale == "100x") {
    // fig8_scale's 100x point: journal-sized mobility. Wider deadlines for
    // the same reason as fig8 (per-user bandwidth shrinks ~10x), and Gen for
    // both tracked placements (Spec at a 10^3-model zoo is a solver
    // benchmark, not a mobility one).
    config.num_servers = 100;
    config.num_users = 2000;
    config.area_side_m = 3162.0;
    config.capacity_bytes = support::gigabytes(1.0);
    config.library_size = 1000;
    config.special.models_per_family = 334;
    config.requests.models_per_user = 30;
    config.requests.deadline_min_s = 2.0;
    config.requests.deadline_max_s = 6.0;
    mobility.first_solver = "gen";
    mobility.second_solver = "gen";
    default_runs = 1;
  } else {
    std::cerr << "fig7_mobility: unknown scale '" << scale
              << "' (available: paper, 100x)\n";
    return 1;
  }

  // Optional Rayleigh scoring: realizations shard over the thread pool (one
  // EvalPlan refresh per slot, bit-identical for any thread count).
  mobility.fading_realizations = options.get_size("fading", 0);
  mobility.threads = sim::threads_option(options);
  const std::size_t runs = options.get_size("runs", default_runs);
  if (runs == 0) {
    std::cerr << "fig7_mobility: runs must be >= 1\n";
    return 1;
  }
  std::cout << "[fig7_mobility] scale=" << scale << ", runs=" << runs << ", "
            << sim::describe_threads(support::resolve_threads(mobility.threads))
            << "\n";

  std::map<double, support::RunningStats> spec_at, gen_at;
  support::Rng master(7);
  // fork() advances the parent engine, so replaying run 0 for the A/B leg
  // needs the master's pre-loop state.
  support::Rng ab_master = master;
  std::vector<sim::MobilityTracePoint> first_trace;
  sim::MobilityStudyTelemetry delta_telemetry;
  for (std::size_t run = 0; run < runs; ++run) {
    support::Rng rng = master.fork(run);
    sim::MobilityStudyTelemetry telemetry;
    const auto trace = sim::run_mobility_study(config, mobility, rng, &telemetry);
    for (const auto& point : trace) {
      spec_at[point.minutes].add(point.spec_hit_ratio);
      gen_at[point.minutes].add(point.gen_hit_ratio);
    }
    if (run == 0) {
      first_trace = trace;
      delta_telemetry = telemetry;
    }
  }

  // A/B leg: the first seed again through the legacy monolithic path. Same
  // scenario, same mobility draws, same channel draws — only the plan
  // maintenance differs, so the trace must be bit-identical.
  sim::MobilityStudyConfig monolithic = mobility;
  monolithic.incremental = false;
  sim::MobilityStudyTelemetry full_telemetry;
  {
    support::Rng rng = ab_master.fork(0);
    const auto full_trace =
        sim::run_mobility_study(config, monolithic, rng, &full_telemetry);
    if (full_trace.size() != first_trace.size()) {
      std::cerr << "fig7_mobility: delta and monolithic traces diverge\n";
      return 1;
    }
    for (std::size_t p = 0; p < full_trace.size(); ++p) {
      if (full_trace[p].spec_hit_ratio != first_trace[p].spec_hit_ratio ||
          full_trace[p].gen_hit_ratio != first_trace[p].gen_hit_ratio) {
        std::cerr << "fig7_mobility: delta-updated plan is not bit-identical "
                     "to the full rebuild at minute "
                  << full_trace[p].minutes << "\n";
        return 1;
      }
    }
  }

  // Column labels follow the configured solvers (spec/gen at paper scale;
  // gen/gen at 100x, disambiguated with an index).
  const std::string first = mobility.first_solver;
  const std::string second = mobility.second_solver == mobility.first_solver
                                 ? mobility.second_solver + "2"
                                 : mobility.second_solver;
  support::Table table(
      {"minutes", first + "_mean", first + "_std", second + "_mean", second + "_std"});
  for (const auto& [minutes, stats] : spec_at) {
    table.add_row({support::Table::cell(minutes, 0),
                   support::Table::cell(stats.mean(), 4),
                   support::Table::cell(stats.stddev(), 4),
                   support::Table::cell(gen_at[minutes].mean(), 4),
                   support::Table::cell(gen_at[minutes].stddev(), 4)});
  }
  sim::emit_experiment("fig7_mobility",
                       "Hit ratio over 2 h of user mobility with a frozen placement "
                       "(paper Fig. 7; scale=" + scale + ")",
                       table);

  const double full_slot = full_telemetry.per_slot_maintenance_seconds();
  const double delta_slot = delta_telemetry.per_slot_maintenance_seconds();
  const double plan_speedup = delta_slot > 0 ? full_slot / delta_slot : 0.0;
  std::cout << "plan maintenance per slot: full " << full_slot * 1e3 << " ms ("
            << full_telemetry.plan_builds << " rebuilds), delta "
            << delta_slot * 1e3 << " ms (" << delta_telemetry.plan_deltas
            << " deltas, " << delta_telemetry.plan_builds << " rebuilds, "
            << delta_telemetry.delta_fallbacks << " fallbacks) -> "
            << plan_speedup << "x\n";

  const std::size_t threads = support::resolve_threads(mobility.threads);
  const auto plan_record = [&](const std::string& path, double slot,
                               const sim::MobilityStudyTelemetry& telemetry) {
    return bench::JsonRecord{
        "fig7_" + scale + "_plan_" + path, slot, threads,
        {{"plan_rebuilds", static_cast<double>(telemetry.plan_builds)},
         {"plan_deltas", static_cast<double>(telemetry.plan_deltas)}}};
  };
  bench::JsonRecord delta_record = plan_record("delta", delta_slot, delta_telemetry);
  if (plan_speedup > 0) delta_record.metrics["plan_update_speedup"] = plan_speedup;
  bench::merge_bench_json("BENCH_runtime.json",
                          {plan_record("full", full_slot, full_telemetry), delta_record});

  const double spec0 = spec_at.begin()->second.mean();
  const double spec_end = spec_at.rbegin()->second.mean();
  const double gen0 = gen_at.begin()->second.mean();
  const double gen_end = gen_at.rbegin()->second.mean();
  std::cout << "degradation over 2 h: Spec " << (spec0 - spec_end) / spec0 * 100.0
            << "% (paper: ~6.43%), Gen " << (gen0 - gen_end) / gen0 * 100.0
            << "% (paper: ~5.42%)\n";
  return 0;
}
