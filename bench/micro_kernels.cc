// google-benchmark microbenchmarks of the hot kernels: Zipf sampling,
// library closure enumeration, the per-server DP solver (both modes), the
// marginal-gain engine, greedy placement, the fading evaluator (EvalPlan
// arena, serial and thread-sharded) and the Monte-Carlo comparison driver.
//
// Provides its own main: results are mirrored into BENCH_micro.json
// (bench/bench_json.h) for the perf trajectory.
#include <benchmark/benchmark.h>

#include "bench/bench_json.h"
#include "src/core/dp_rounding.h"
#include "src/core/objective.h"
#include "src/core/trimcaching_gen.h"
#include "src/core/trimcaching_spec.h"
#include "src/model/special_case_generator.h"
#include "src/sim/eval_plan.h"
#include "src/sim/evaluator.h"
#include "src/sim/monte_carlo.h"
#include "src/sim/scenario.h"
#include "src/support/simd.h"
#include "src/workload/zipf.h"

namespace {

using namespace trimcaching;

sim::ScenarioConfig bench_config(std::size_t users) {
  sim::ScenarioConfig config;
  config.num_servers = 10;
  config.num_users = users;
  config.capacity_bytes = support::gigabytes(1.0);
  config.library_size = 30;
  config.special.models_per_family = 100;
  return config;
}

const sim::Scenario& shared_scenario() {
  static const sim::Scenario scenario = [] {
    support::Rng rng(99);
    return sim::build_scenario(bench_config(20), rng);
  }();
  return scenario;
}

// ~1000-link arena for the SIMD fading A/B: with the default 275 m coverage
// in a 1 km^2 area each (server, user) pair covers with probability ~0.2,
// so 48 servers x 120 users lands E[links] comfortably above 1000 (the
// BM_FadingKernel `links` counter reports the realized count).
const sim::Scenario& big_scenario() {
  static const sim::Scenario scenario = [] {
    support::Rng rng(77);
    sim::ScenarioConfig config = bench_config(120);
    config.num_servers = 48;
    return sim::build_scenario(config, rng);
  }();
  return scenario;
}

void BM_ZipfSample(benchmark::State& state) {
  const workload::ZipfDistribution zipf(static_cast<std::size_t>(state.range(0)), 0.8);
  support::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.sample(rng));
  }
}
BENCHMARK(BM_ZipfSample)->Arg(30)->Arg(300);

void BM_LibraryClosure(benchmark::State& state) {
  support::Rng rng(2);
  model::SpecialCaseConfig config;
  config.models_per_family = static_cast<std::size_t>(state.range(0));
  const auto lib = model::build_special_case_library(config, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lib.shared_combination_closure());
  }
}
BENCHMARK(BM_LibraryClosure)->Arg(5)->Arg(10)->Arg(20);

void BM_ProblemConstruction(benchmark::State& state) {
  const auto& scenario = shared_scenario();
  for (auto _ : state) {
    core::PlacementProblem problem(scenario.topology, scenario.library,
                                   scenario.requests);
    benchmark::DoNotOptimize(problem.total_mass());
  }
}
BENCHMARK(BM_ProblemConstruction);

void BM_SubproblemProfitDp(benchmark::State& state) {
  const auto& scenario = shared_scenario();
  const core::PlacementProblem problem = scenario.problem();
  core::CoverageState coverage(problem);
  std::vector<double> utilities(problem.num_models());
  for (ModelId i = 0; i < problem.num_models(); ++i) {
    utilities[i] = coverage.marginal_mass(0, i);
  }
  core::SpecSolverConfig config;
  config.epsilon = 1.0 / static_cast<double>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::solve_server_subproblem(
        scenario.library, utilities, problem.capacity(0), config));
  }
}
BENCHMARK(BM_SubproblemProfitDp)->Arg(2)->Arg(10)->Arg(100);

void BM_SubproblemWeightDp(benchmark::State& state) {
  const auto& scenario = shared_scenario();
  const core::PlacementProblem problem = scenario.problem();
  core::CoverageState coverage(problem);
  std::vector<double> utilities(problem.num_models());
  for (ModelId i = 0; i < problem.num_models(); ++i) {
    utilities[i] = coverage.marginal_mass(0, i);
  }
  core::SpecSolverConfig config;
  config.mode = core::DpMode::kWeightQuantized;
  config.weight_states = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::solve_server_subproblem(
        scenario.library, utilities, problem.capacity(0), config));
  }
}
BENCHMARK(BM_SubproblemWeightDp)->Arg(1024)->Arg(4096)->Arg(16384);

void BM_MarginalGainScan(benchmark::State& state) {
  const auto& scenario = shared_scenario();
  const core::PlacementProblem problem = scenario.problem();
  core::CoverageState coverage(problem);
  for (auto _ : state) {
    double total = 0;
    for (ServerId m = 0; m < problem.num_servers(); ++m) {
      for (ModelId i = 0; i < problem.num_models(); ++i) {
        total += coverage.marginal_mass(m, i);
      }
    }
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_MarginalGainScan);

void BM_TrimCachingGen(benchmark::State& state) {
  const auto& scenario = shared_scenario();
  const core::PlacementProblem problem = scenario.problem();
  const core::GenConfig config{.lazy = state.range(0) != 0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::trimcaching_gen(problem, config));
  }
}
BENCHMARK(BM_TrimCachingGen)->Arg(0)->Arg(1);

void BM_TrimCachingSpec(benchmark::State& state) {
  const auto& scenario = shared_scenario();
  const core::PlacementProblem problem = scenario.problem();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::trimcaching_spec(problem));
  }
}
BENCHMARK(BM_TrimCachingSpec);

// Theorem 1 check: with the special case's bounded shared-block count β,
// TrimCaching Spec scales polynomially in the library size I — no
// exponential blow-up. Empirically the fit is ~N^2 at small I (the distinct
// freeze depths, and hence the combination count, still grow with I until
// the freeze-range widths saturate at β ≤ 59), trending to Theorem 1's
// O(M·I) once β is saturated.
void BM_SpecScalingInLibrary(benchmark::State& state) {
  const auto models = static_cast<std::size_t>(state.range(0));
  support::Rng rng(123);
  sim::ScenarioConfig config = bench_config(20);
  config.library_size = 0;
  config.special.models_per_family = models / 3;
  config.requests.models_per_user = 30;
  const sim::Scenario scenario = sim::build_scenario(config, rng);
  const core::PlacementProblem problem = scenario.problem();
  core::SpecConfig spec;
  spec.solver.mode = core::DpMode::kWeightQuantized;
  spec.solver.weight_states = 2048;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::trimcaching_spec(problem, spec));
  }
  state.SetComplexityN(static_cast<std::int64_t>(models));
}
BENCHMARK(BM_SpecScalingInLibrary)->Arg(30)->Arg(90)->Arg(180)->Arg(300)->Complexity();

// The fading kernel on one arena, scalar backend vs the runtime-dispatched
// one. First arg = arena scale (0 = the shared ~50-link scenario, 1 = the
// ~1000-link scenario), second = backend (0 = forced scalar, 1 = active —
// avx2 where available, else scalar again). 100 realizations each.
// main() below derives the hardware-independent fading_vector_speedup_*
// records (scalar wall over active wall) from the /0 vs /1 rows.
void BM_FadingKernel(benchmark::State& state) {
  namespace simd = support::simd;
  const auto& scenario = state.range(0) == 0 ? shared_scenario() : big_scenario();
  const core::PlacementProblem problem = scenario.problem();
  const auto placement = core::trimcaching_gen(problem).placement;
  const sim::EvalPlan plan(scenario.topology, scenario.library, scenario.requests);
  const support::Rng rng(5);
  if (state.range(1) == 0) simd::force_backend(simd::Backend::kScalar);
  state.SetLabel(simd::backend_name(simd::active_backend()));
  for (auto _ : state) {
    benchmark::DoNotOptimize(plan.fading_hit_ratio(placement, 100, rng, 1));
  }
  simd::clear_forced_backend();
  state.counters["links"] = static_cast<double>(plan.num_links());
}
BENCHMARK(BM_FadingKernel)->Args({0, 0})->Args({0, 1})->Args({1, 0})->Args({1, 1});

// The raw counter-based Rayleigh batch (support/simd.h rayleigh_gains):
// scalar backend vs the runtime-dispatched one. First arg = batch length,
// second = backend (0 = scalar, 1 = active — avx2 where available, else
// scalar again, so the benchmark never skips).
void BM_RayleighBatch(benchmark::State& state) {
  namespace simd = support::simd;
  const auto n = static_cast<std::size_t>(state.range(0));
  const simd::Backend backend =
      state.range(1) == 0 ? simd::Backend::kScalar : simd::active_backend();
  const simd::Ops& ops = simd::ops(backend);
  std::vector<double> gains(n);
  std::uint64_t key = 0x9e3779b97f4a7c15ull;
  for (auto _ : state) {
    ops.rayleigh_gains(key, n, gains.data());
    benchmark::DoNotOptimize(gains.data());
    benchmark::ClobberMemory();
    ++key;  // a fresh realization key per iteration, like the fading loop
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
  state.SetLabel(simd::backend_name(backend));
}
BENCHMARK(BM_RayleighBatch)->Args({1000, 0})->Args({1000, 1});

// Fading Monte-Carlo over the EvalPlan arena; second arg = thread count.
void BM_FadingEvaluation(benchmark::State& state) {
  const auto& scenario = shared_scenario();
  const core::PlacementProblem problem = scenario.problem();
  const auto placement = core::trimcaching_gen(problem).placement;
  const sim::Evaluator evaluator(scenario.topology, scenario.library,
                                 scenario.requests);
  const support::Rng rng(5);
  const auto threads = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        evaluator.fading_hit_ratio(placement, static_cast<std::size_t>(state.range(0)),
                                   rng, threads));
  }
}
BENCHMARK(BM_FadingEvaluation)
    ->Args({10, 1})
    ->Args({100, 1})
    ->Args({100, 2})
    ->Args({100, 8});

void BM_EvalPlanBuild(benchmark::State& state) {
  const auto& scenario = shared_scenario();
  for (auto _ : state) {
    const sim::EvalPlan plan(scenario.topology, scenario.library, scenario.requests);
    benchmark::DoNotOptimize(plan.num_rows());
  }
}
BENCHMARK(BM_EvalPlanBuild);

// Whole comparison driver (topology-sharded); arg = thread count.
void BM_RunComparison(benchmark::State& state) {
  sim::ScenarioConfig config = bench_config(12);
  config.library_size = 20;
  sim::MonteCarloConfig mc;
  mc.topologies = 4;
  mc.fading_realizations = 50;
  mc.threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::run_comparison(config, {"gen", "independent"}, mc));
  }
}
BENCHMARK(BM_RunComparison)->Arg(1)->Arg(2)->Arg(8)->Unit(benchmark::kMillisecond);

// benchmark v1.8 replaced Run::error_occurred with Run::skipped; detect the
// old field so the reporter builds against both API generations (fallback:
// treat nothing as failed — a failed run then merely shows up in the JSON).
template <typename R>
auto run_failed(const R& run, int) -> decltype(static_cast<bool>(run.error_occurred)) {
  return run.error_occurred;
}
template <typename R>
bool run_failed(const R&, long) {
  return false;
}

// Mirrors every iteration run into BENCH_micro.json next to the console
// output. google-benchmark's own `threads` field stays 1 here (we
// parallelize inside the kernels, not via benchmark's ThreadRange).
class JsonMirrorReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.run_type != Run::RT_Iteration || run_failed(run, 0)) continue;
      bench::JsonRecord record;
      record.name = run.benchmark_name();
      record.wall_seconds = run.iterations > 0
                                ? run.real_accumulated_time /
                                      static_cast<double>(run.iterations)
                                : run.real_accumulated_time;
      if (record.wall_seconds > 0) {
        record.metrics["throughput"] = 1.0 / record.wall_seconds;
      }
      record.threads = static_cast<std::size_t>(run.threads);
      records.push_back(std::move(record));
    }
    ConsoleReporter::ReportRuns(reports);
  }

  std::vector<bench::JsonRecord> records;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  JsonMirrorReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  // Derived hardware-independent ratios: the fading kernel on the scalar
  // backend over the active one on the same arena, carried in
  // speedup_vs_serial so the CI ratio gate (bench/gates.txt) can pin the
  // vector backend's floor. Only emitted when the
  // source rows ran (benchmark_filter).
  struct RatioSpec {
    const char* name;
    const char* scalar;
    const char* active;
  };
  constexpr RatioSpec kRatios[] = {
      {"fading_vector_speedup_100", "BM_FadingKernel/0/0", "BM_FadingKernel/0/1"},
      {"fading_vector_speedup_1000", "BM_FadingKernel/1/0", "BM_FadingKernel/1/1"},
  };
  const auto wall_of = [&reporter](const char* name) -> double {
    for (const auto& record : reporter.records) {
      if (record.name == name) return record.wall_seconds;
    }
    return 0.0;
  };
  for (const RatioSpec& spec : kRatios) {
    const double scalar = wall_of(spec.scalar);
    const double active = wall_of(spec.active);
    if (scalar <= 0 || active <= 0) continue;
    reporter.records.push_back(
        {spec.name, active, 1,
         {{"throughput", 1.0 / active}, {"speedup_vs_serial", scalar / active}}});
  }

  trimcaching::bench::write_bench_json("BENCH_micro.json", reporter.records);
  return 0;
}
