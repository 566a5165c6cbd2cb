// Fig. 7: cache hit ratio over 2 h of user mobility with a placement frozen
// at t = 0 (M = 10, K = 10, Q = 1 GB; pedestrian/bike/vehicle mix; 5 s
// slots). The paper reports only ~6.43% (Spec) / ~5.42% (Gen) degradation.
//
// Plan-maintenance instrumentation: every evaluated slot moves all users
// through NetworkTopology::update_user_positions, and the Evaluator
// refreshes its EvalPlan's link arrays while keeping the request rows it
// built at t = 0. The first run's per-slot maintenance wall-clock lands in
// BENCH_runtime.json (merged next to fig6b's records; bench/bench_json.h
// schema) as fig7_<scale>_plan, with the hardware-independent ratio of the
// t = 0 plan build to the mean per-slot maintenance in plan_build_over_slot
// for the CI gate (bench/gates.txt): a slot that rebuilt its rows again
// would pull the ratio towards 1.
//
//   ./fig7_mobility                      # paper scale (M=10, K=10)
//   ./fig7_mobility scale=100x threads=8 # fig8's 100x point (M=100, K=2000,
//                                        # I=1000), CI maintenance gate
//   ./fig7_mobility fading=200           # Rayleigh scoring per slot
#include <algorithm>
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
  sim::MobilityStudyTelemetry first_telemetry;
  for (std::size_t run = 0; run < runs; ++run) {
    support::Rng rng = master.fork(run);
    sim::MobilityStudyTelemetry telemetry;
    const auto trace = sim::run_mobility_study(config, mobility, rng, &telemetry);
    for (const auto& point : trace) {
      spec_at[point.minutes].add(point.spec_hit_ratio);
      gen_at[point.minutes].add(point.gen_hit_ratio);
    }
    if (run == 0) first_telemetry = telemetry;
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
  // One CSV per scale, so running both in one directory keeps both.
  sim::emit_experiment(scale == "paper" ? "fig7_mobility" : "fig7_mobility_" + scale,
                       "Hit ratio over 2 h of user mobility with a frozen placement "
                       "(paper Fig. 7; scale=" + scale + ")",
                       table);

  const sim::MobilityStudyTelemetry& t = first_telemetry;
  const double slot = t.per_slot_maintenance_seconds();
  const double build = t.initial_plan_build_seconds;
  const double slots = static_cast<double>(std::max<std::size_t>(t.topology_updates, 1));
  std::cout << "plan maintenance: t = 0 build " << build * 1e3 << " ms, per slot "
            << slot * 1e3 << " ms = position update "
            << t.topology_update_seconds / slots * 1e3 << " ms + refresh "
            << t.plan_refresh_seconds / slots * 1e3 << " ms (" << t.plan_refreshes
            << " refreshes, " << t.plan_builds << " rebuilds)\n";

  bench::JsonRecord record{
      "fig7_" + scale + "_plan", slot, support::resolve_threads(mobility.threads),
      {{"plan_rebuilds", static_cast<double>(t.plan_builds)},
       {"plan_refreshes", static_cast<double>(t.plan_refreshes)}}};
  if (slot > 0) record.metrics["plan_build_over_slot"] = build / slot;
  bench::merge_bench_json("BENCH_runtime.json", {record});

  const double spec0 = spec_at.begin()->second.mean();
  const double spec_end = spec_at.rbegin()->second.mean();
  const double gen0 = gen_at.begin()->second.mean();
  const double gen_end = gen_at.rbegin()->second.mean();
  std::cout << "degradation over 2 h: Spec " << (spec0 - spec_end) / spec0 * 100.0
            << "% (paper: ~6.43%), Gen " << (gen0 - gen_end) / gen0 * 100.0
            << "% (paper: ~5.42%)\n";
  return 0;
}
