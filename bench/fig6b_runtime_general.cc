// Fig. 6(b): general case — running time of TrimCaching Gen vs TrimCaching
// Spec when parameter sharing is arbitrary (Q = 0.2 GB, 27 requested models
// per user). The paper reports Gen ~3,900x faster; the point of this bench
// is the orders-of-magnitude gap caused by the shared-block combination
// blow-up, not the exact factor.
//
// Doubles as the runtime harness of the parallel evaluation engine: the
// comparison is timed once serially (threads=1) and once at the requested
// thread count, and both measurements — plus the speedup — land in
// BENCH_runtime.json for the perf trajectory.
#include <functional>
#include <iostream>

#include "bench/bench_json.h"
#include "src/model/general_case_generator.h"
#include "src/sim/experiment.h"
#include "src/sim/monte_carlo.h"
#include "src/support/table.h"
#include "src/support/timing.h"

namespace {

double timed_seconds(const std::function<void()>& fn) {
  const auto start = trimcaching::support::WallClock::now();
  fn();
  return trimcaching::support::seconds_since(start);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace trimcaching;

  sim::ScenarioConfig config;
  config.area_side_m = 400.0;
  config.num_servers = 2;
  config.num_users = 6;
  config.capacity_bytes = support::megabytes(200);
  config.library_kind = sim::LibraryKind::kGeneralCase;
  config.general = model::reduced_general_case_config();
  config.library_size = 0;  // keep all 30 models of the reduced library
  config.requests.models_per_user = 27;

  sim::MonteCarloConfig mc = sim::bench_mc_config(argc, argv);
  // Eight quick topologies shard evenly onto up to eight workers.
  mc.topologies = sim::full_scale_requested() ? 20 : 8;
  sim::announce_mc(mc);
  const std::vector<std::string> specs = {
      "gen", "spec:eps=0.05,max_combinations=16777216"};

  // Serial baseline, then the parallel run (identical results by the
  // engine's determinism contract; only the wall clock moves).
  sim::MonteCarloConfig serial_mc = mc;
  serial_mc.threads = 1;
  std::vector<sim::SolverStats> stats;
  const double serial_seconds = timed_seconds(
      [&] { stats = sim::run_comparison(config, specs, serial_mc); });
  const std::size_t threads = support::resolve_threads(mc.threads);
  double parallel_seconds = serial_seconds;
  if (threads > 1) {
    parallel_seconds =
        timed_seconds([&] { stats = sim::run_comparison(config, specs, mc); });
  }

  support::Table table({"algorithm", "hit_ratio", "std", "runtime_s"});
  for (const auto& s : stats) {
    table.add_row({s.title, support::Table::cell(s.fading_hit_ratio.mean, 4),
                   support::Table::cell(s.fading_hit_ratio.stddev, 4),
                   support::Table::cell(s.runtime_seconds.mean, 6)});
  }
  sim::emit_experiment(
      "fig6b_runtime_general",
      "General case: Gen vs Spec running time (paper Fig. 6b; Q=0.2 GB, 27 "
      "requested models per user)",
      table);
  sim::emit_solver_metrics("fig6b_runtime_general", {{"general", stats}});

  const double speedup = serial_seconds / std::max(1e-9, parallel_seconds);
  const double per_topology = static_cast<double>(mc.topologies);
  // Merge, don't overwrite: fig7_mobility shares this document (its
  // fig7_*_plan_* records must survive whichever binary runs last).
  bench::merge_bench_json(
      "BENCH_runtime.json",
      {{"fig6b_run_comparison_serial", serial_seconds, 1,
        {{"throughput", per_topology / serial_seconds}}},
       {"fig6b_run_comparison", parallel_seconds, threads,
        {{"throughput", per_topology / parallel_seconds},
         {"speedup_vs_serial", speedup}}}});
  std::cout << "run_comparison wall: " << serial_seconds << " s serial, "
            << parallel_seconds << " s at " << threads << " threads (" << speedup
            << "x)\n";

  std::cout << "Spec/Gen runtime ratio: "
            << stats[1].runtime_seconds.mean /
                   std::max(1e-9, stats[0].runtime_seconds.mean)
            << "x (paper: ~3,900x; shape matters, not the constant)\n";
  return 0;
}
