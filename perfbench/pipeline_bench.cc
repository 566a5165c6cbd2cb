// Outside-in pipeline benchmark: drives the public calls of every layer in
// pipeline order, times each call, checks its output, and prints one JSON
// result line. perfbench/run.py builds and runs it; README.md documents the
// workloads, metrics and predictions.
//
//   pipeline_bench --workload plan-100x --seed 7 --seconds 20 --trace 0
//                  [--size full|small] [--git-rev REV]
//
// Records and traces are written under .bench_out/ in the working directory.
//
// A run sweeps over a fixed number of scenarios, each derived from the seed
// and its index, until --seconds have elapsed (at least one sweep). Each
// scenario is set up a few times (the median is setup_s), measured by one
// pass (the median is pipeline_s) and released. A pass runs the workload's
// stages once, each stage one library call inside a named span; the outputs
// are checked outside the timed regions, and deterministic outcomes must
// repeat bit-exactly.
//
// --trace 1 keeps every span (name, start, end, parent, counters) in memory,
// measures each scenario traced and untraced to report the tracing
// overhead, prints the per-stage table, writes a Chrome trace-event file and
// reports the per-layer metrics instead of the end-to-end ones.
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/placement.h"
#include "src/core/solver_registry.h"
#include "src/core/storage.h"
#include "src/serve/engine.h"
#include "src/sim/evaluator.h"
#include "src/sim/fault_model.h"
#include "src/sim/placement_repair.h"
#include "src/sim/scenario.h"
#include "src/sim/tiler.h"
#include "src/support/resource.h"
#include "src/support/rng.h"
#include "src/support/simd.h"
#include "src/workload/drifting_zipf.h"

namespace {

using namespace trimcaching;
using Clock = std::chrono::steady_clock;

/// Worker threads of every parallel call; results are bit-identical at any
/// count, so only timings depend on it.
constexpr std::size_t kThreads = 4;

// Streams of the workload seed; every input derives counter-based from it.
constexpr std::uint64_t kScenarioStream = 1;
constexpr std::uint64_t kSolveStream = 2;
constexpr std::uint64_t kDriftStream = 3;
constexpr std::uint64_t kFaultStream = 4;
constexpr std::uint64_t kReplayStream = 5;
constexpr std::uint64_t kFadingStream = 6;

const std::vector<std::string> kDriftPolicies = {"lru", "ewma", "priority"};
const std::vector<std::string> kAllPolicies = {"lru", "ewma", "priority", "static"};

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::string json_number(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

// ------------------------------------------------------------------ spans

struct Span {
  std::string name;
  int parent = -1;
  int depth = 0;
  double start_s = 0.0;
  double end_s = 0.0;
  std::vector<std::pair<std::string, double>> counters;
};

/// Span recorder. Every scope is timed; spans are kept only while
/// recording is on (depth-0 phases are always kept, so the unattributed
/// remainder stays measurable in untraced passes too).
class Timeline {
 public:
  class Scope {
   public:
    Scope(Timeline& timeline, std::string name)
        : timeline_(&timeline), depth_(static_cast<int>(timeline.open_.size())) {
      if (depth_ > 0) ++timeline.calls_;
      if (timeline.recording_ || depth_ == 0) {
        id_ = static_cast<int>(timeline.spans_.size());
        timeline.spans_.push_back(
            {std::move(name), timeline.open_.empty() ? -1 : timeline.open_.back(), depth_,
             timeline.now(), 0.0, {}});
      }
      timeline.open_.push_back(id_);
      cpu_start_ = process_cpu_seconds();
      start_ = Clock::now();
    }
    ~Scope() { close(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Ends the span (idempotent) and returns its wall seconds.
    double close() {
      if (!closed_) {
        wall_s_ = std::chrono::duration<double>(Clock::now() - start_).count();
        cpu_s_ = process_cpu_seconds() - cpu_start_;
        if (id_ >= 0) timeline_->spans_[static_cast<std::size_t>(id_)].end_s = timeline_->now();
        timeline_->open_.pop_back();
        closed_ = true;
      }
      return wall_s_;
    }
    /// Process CPU seconds (all threads) spent inside the span; valid after close().
    [[nodiscard]] double cpu_s() const noexcept { return cpu_s_; }
    /// Attaches a counter to the span's trace record.
    void counter(const std::string& key, double value) {
      if (id_ >= 0) timeline_->spans_[static_cast<std::size_t>(id_)].counters.emplace_back(key, value);
    }

   private:
    Timeline* timeline_;
    int depth_;
    int id_ = -1;
    bool closed_ = false;
    double cpu_start_ = 0.0;
    double wall_s_ = 0.0;
    double cpu_s_ = 0.0;
    Clock::time_point start_;
  };

  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }
  void set_recording(bool on) noexcept { recording_ = on; }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }
  /// Library calls made so far (scopes nested under a phase).
  [[nodiscard]] std::size_t calls() const noexcept { return calls_; }

 private:
  Clock::time_point origin_ = Clock::now();
  bool recording_ = false;
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::size_t calls_ = 0;
};

// ------------------------------------------------------------ bench state

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool small = false;
  std::string git_rev = "unknown";
};

/// What a workload records: stage samples (one per setup or pass, reported
/// as the median over the run), deterministic outcomes per scenario (must
/// repeat bit-exactly whenever the scenario is set up or measured again,
/// reported as the mean over the scenarios), and failed checks.
class Bench {
 public:
  explicit Bench(const Args& args) : args(args), root(args.seed) {}

  const Args& args;
  const support::Rng root;
  Timeline timeline;
  /// Scenario the current setup or pass works on.
  std::size_t scenario = 0;
  std::size_t setups = 0;
  std::size_t passes = 0;

  /// The current scenario's generator of `stream`.
  [[nodiscard]] support::Rng rng(std::uint64_t stream) const { return root.at(stream, scenario); }

  void sample(const std::string& name, double value) { samples_[name].push_back(value); }
  void outcome(const std::string& name, double value) {
    const auto [it, inserted] = outcomes_[name].emplace(scenario, value);
    if (!inserted && !(it->second == value)) {
      fail(name + " of scenario " + std::to_string(scenario) + " changed on a repeat: " +
           json_number(it->second) + " vs " + json_number(value));
    }
  }
  void expect(bool ok, const std::string& what) {
    if (!ok) fail(what);
  }
  void fail(const std::string& what) {
    ++failed_;
    std::cerr << "check failed: " << what << "\n";
  }

  /// Samples first, then outcomes; 0 for a layer the workload bypasses.
  [[nodiscard]] double value(const std::string& name) const {
    if (const auto it = samples_.find(name); it != samples_.end()) return median(it->second);
    if (const auto it = outcomes_.find(name); it != outcomes_.end()) {
      double sum = 0.0;
      for (const auto& [index, value] : it->second) sum += value;
      return sum / static_cast<double>(it->second.size());
    }
    return 0.0;
  }
  [[nodiscard]] std::size_t failed() const noexcept { return failed_; }

 private:
  std::map<std::string, std::vector<double>> samples_;
  std::map<std::string, std::map<std::size_t, double>> outcomes_;
  std::size_t failed_ = 0;
};

/// Eq. 3: the deduplicated footprint of every server fits its capacity.
void check_capacity(Bench& bench, const sim::Scenario& scenario,
                    const core::PlacementSolution& placement, const std::string& who) {
  for (ServerId m = 0; m < placement.num_servers(); ++m) {
    const support::Bytes used = core::dedup_storage(scenario.library, placement.models_on(m));
    bench.expect(used <= scenario.topology.capacity(m),
                 who + ": server " + std::to_string(m) + " over capacity (Eq. 3)");
  }
}

// -------------------------------------------------------------- workloads

/// A workload measures `scenarios()` scenarios in turn, each derived from
/// the workload seed and its index, so one run averages over several
/// inputs. Each scenario is set up `setup_reps()` times, then measured by
/// one pass, then released; only one scenario is alive at a time.
class Workload {
 public:
  Workload(std::size_t scenarios, std::size_t setup_reps)
      : scenarios_(scenarios), setup_reps_(setup_reps) {}
  virtual ~Workload() = default;
  [[nodiscard]] std::size_t scenarios() const noexcept { return scenarios_; }
  [[nodiscard]] std::size_t setup_reps() const noexcept { return setup_reps_; }
  /// Builds the state of bench.scenario from scratch.
  virtual void setup(Bench& bench) = 0;
  virtual void check_setup(Bench& bench) = 0;
  /// Drops the state setup() built.
  virtual void release() = 0;
  /// One measured pass over bench.scenario.
  virtual void pass(Bench& bench) = 0;
  virtual void check_pass(Bench& bench) = 0;

 private:
  std::size_t scenarios_;
  std::size_t setup_reps_;
};

/// fig8's 100x point (M=100, K=2000, I=1000); `small` is its 10x point.
sim::ScenarioConfig scale_config(bool small) {
  sim::ScenarioConfig config;
  config.num_servers = small ? 32 : 100;
  config.num_users = small ? 200 : 2000;
  config.area_side_m = small ? 1789.0 : 3162.0;
  config.library_size = small ? 300 : 1000;
  config.special.models_per_family = small ? 100 : 334;
  config.requests.models_per_user = 30;
  config.requests.deadline_min_s = 2.0;
  config.requests.deadline_max_s = 6.0;
  return config;
}

sim::Scenario build_scenario(Bench& bench, const sim::ScenarioConfig& config) {
  support::Rng rng = bench.rng(kScenarioStream);
  Timeline::Scope span(bench.timeline, "sim.scenario_build");
  sim::Scenario scenario = sim::build_scenario(config, rng);
  bench.sample("sim.scenario_build_s", span.close());
  return scenario;
}

/// Untiled Gen placement on the full problem (the CLI's untiled path).
core::PlacementSolution solve_untiled(Bench& bench, const sim::Scenario& scenario) {
  std::optional<core::PlacementProblem> problem;
  {
    Timeline::Scope span(bench.timeline, "core.problem_build");
    problem.emplace(scenario.problem());
    bench.sample("core.problem_build_s", span.close());
  }
  Timeline::Scope span(bench.timeline, "core.solve");
  core::SolverContext context(bench.rng(kSolveStream));
  core::SolverOutcome outcome = core::SolverRegistry::instance()
                                    .make("gen:threads=" + std::to_string(kThreads))
                                    ->run(*problem, context);
  bench.sample("core.solve_s", span.close());
  span.counter("gain_evaluations", static_cast<double>(outcome.gain_evaluations));
  bench.outcome("core.gain_evaluations", static_cast<double>(outcome.gain_evaluations));
  bench.outcome("core.hit_ratio", outcome.hit_ratio);
  return std::move(outcome.placement);
}

class PlanWorkload final : public Workload {
 public:
  explicit PlanWorkload(bool small) : Workload(8, 2), small_(small) {}

  void setup(Bench& bench) override {
    scenario_.emplace(build_scenario(bench, scale_config(small_)));
  }
  void check_setup(Bench& bench) override {
    bench.expect(scenario_->topology.num_servers() > 0, "plan: empty scenario");
  }
  void release() override { scenario_.reset(); }

  void pass(Bench& bench) override {
    Timeline& tl = bench.timeline;
    const sim::Scenario& scenario = *scenario_;
    double plan_s = 0.0;

    sim::TilerConfig tiler_config;
    tiler_config.tiles_x = 2;
    tiler_config.tiles_y = 2;
    tiler_config.threads = kThreads;
    std::optional<sim::ScenarioTiler> tiler;
    std::optional<sim::TiledSolveResult> tiled;
    {
      Timeline::Scope span(tl, "sim.tiler_build");
      tiler.emplace(scenario, tiler_config);
      plan_s += span.close();
    }
    {
      Timeline::Scope span(tl, "sim.tiler_solve");
      tiled.emplace(tiler->solve("gen", bench.rng(kSolveStream).seed(), kThreads));
      plan_s += span.close();
      bench.sample("sim.tiler_solve_s", span.close());
      bench.sample("sim.tiler_solve_cpu_s", span.cpu_s());
      span.counter("gain_evaluations", static_cast<double>(tiled->gain_evaluations));
      bench.outcome("core.gain_evaluations", static_cast<double>(tiled->gain_evaluations));
      bench.outcome("sim.stitch_duplication", tiled->duplication_factor);
    }
    std::optional<sim::PlacementRepair> repairer;
    {
      const double rss_before = support::current_rss_mb();
      Timeline::Scope span(tl, "sim.repair_build");
      repairer.emplace(scenario, tiler->server_tiles(), sim::RepairConfig{kThreads, 1e-12});
      plan_s += span.close();
      bench.sample("sim.repair_build_s", span.close());
      bench.sample("sim.repair_build_rss_mb", support::current_rss_mb() - rss_before);
    }
    {
      Timeline::Scope span(tl, "sim.repair");
      repaired_.emplace(repairer->repair(tiled->placement, kThreads));
      plan_s += span.close();
      bench.sample("sim.repair_s", span.close());
      span.counter("evicted", static_cast<double>(repaired_->duplicates_evicted));
      span.counter("added", static_cast<double>(repaired_->models_added));
      bench.outcome("sim.repair_evicted", static_cast<double>(repaired_->duplicates_evicted));
      bench.outcome("sim.repair_added", static_cast<double>(repaired_->models_added));
      bench.outcome("sim.duplication_after", repaired_->duplication_after);
    }
    repairer.reset();
    tiler.reset();
    bench.sample("sim.plan_s", plan_s);

    sim::Evaluator evaluator(scenario.topology, scenario.library, scenario.requests);
    double fading_s = 0.0;
    {
      Timeline::Scope span(tl, "sim.plan_build");
      static_cast<void>(evaluator.plan());
      fading_s += span.close();
      bench.sample("sim.plan_build_s", span.close());
    }
    {
      Timeline::Scope span(tl, "sim.expected_hit_ratio");
      expected_ = evaluator.expected_hit_ratio(repaired_->placement);
    }
    {
      Timeline::Scope span(tl, "sim.fading");
      const support::Summary fading = evaluator.fading_hit_ratio(
          repaired_->placement, realizations(), bench.rng(kFadingStream), kThreads);
      fading_s += span.close();
      bench.sample("sim.fading_s", span.close());
      bench.sample("sim.fading_cpu_s", span.cpu_s());
      span.counter("realizations", static_cast<double>(realizations()));
      bench.outcome("sim.fading_hit_ratio", fading.mean);
      bench.outcome("hit_ratio", fading.mean);
    }
    bench.sample("sim.fading_rps", static_cast<double>(realizations()) / fading_s);
    bench.outcome("sim.lowering_builds", static_cast<double>(evaluator.plan_stats().lowering_builds));
    bench.outcome("sim.lowering_hits", static_cast<double>(evaluator.plan_stats().lowering_hits));
    bench.outcome("sim.expected_hit_ratio", expected_);
  }

  void check_pass(Bench& bench) override {
    check_capacity(bench, *scenario_, repaired_->placement, "plan: repaired placement");
    const double repaired = repaired_->hit_ratio;
    bench.expect(std::abs(repaired - expected_) <= 1e-12 * std::abs(expected_),
                 "plan: RepairResult::hit_ratio " + json_number(repaired) +
                     " disagrees with Evaluator::expected_hit_ratio " + json_number(expected_));
  }

 private:
  [[nodiscard]] std::size_t realizations() const { return small_ ? 2000 : 20000; }

  bool small_;
  std::optional<sim::Scenario> scenario_;
  std::optional<sim::RepairResult> repaired_;
  double expected_ = 0.0;
};

/// Shared state and replay bookkeeping of the two serving workloads.
class ServeWorkload : public Workload {
 public:
  using Workload::Workload;

 protected:
  struct Deployment {
    sim::Scenario scenario;
    core::PlacementSolution placement;
  };

  void setup_deployment(Bench& bench, const sim::ScenarioConfig& config) {
    sim::Scenario scenario = build_scenario(bench, config);
    core::PlacementSolution placement = solve_untiled(bench, scenario);
    deployment_.emplace(Deployment{std::move(scenario), std::move(placement)});
  }
  void check_deployment(Bench& bench, const std::string& who) const {
    const Deployment& deployment = *deployment_;
    check_capacity(bench, deployment.scenario, deployment.placement, who + ": gen placement");
  }

  /// Replays `config` once per policy against bench.scenario; records
  /// per-policy counters and the totals over the policies.
  void replay(Bench& bench, serve::ServeConfig config,
              const std::vector<std::string>& policies) {
    const Deployment& deployment = *deployment_;
    config.threads = kThreads;
    results_.clear();
    double replay_s = 0.0;
    serve::ServeMetrics sum;
    double worst_p99 = 0.0;
    for (const std::string& policy : policies) {
      config.policy = policy;
      Timeline::Scope span(bench.timeline, "serve.replay." + policy);
      const serve::ServeResult result = serve::simulate_serving(
          deployment.scenario.topology, deployment.scenario.library,
          deployment.scenario.requests, deployment.placement, config, bench.rng(kReplayStream));
      replay_s += span.close();
      bench.sample("serve.replay_s." + policy, span.close());
      bench.sample("serve.replay_cpu_s." + policy, span.cpu_s());
      const serve::ServeMetrics& t = result.totals;
      span.counter("requests", static_cast<double>(t.requests));
      span.counter("edge_hits", static_cast<double>(t.edge_hits));
      span.counter("cache_evictions", static_cast<double>(t.cache_evictions));
      span.counter("stale_events", static_cast<double>(t.stale_events));
      span.counter("outages", static_cast<double>(t.outages));
      span.counter("failovers", static_cast<double>(t.failovers));

      const auto count = [&](const char* key, std::uint64_t value) {
        bench.outcome(std::string("serve.") + key + "." + policy, static_cast<double>(value));
      };
      count("requests", t.requests);
      count("edge_hits", t.edge_hits);
      count("cloud_fetches", t.cloud_fetches);
      count("merged_fetches", t.merged_fetches);
      count("cache_evictions", t.cache_evictions);
      count("stale_events", t.stale_events);
      count("relays", t.relays);
      count("failovers", t.failovers);
      count("failed_over", t.failed_over);
      count("aborted", t.aborted);
      count("outages", t.outages);
      count("recoveries", t.recoveries);
      count("compute_rejects", t.compute_rejects);
      const double requests = static_cast<double>(t.requests);
      bench.outcome("serve.hit_ratio." + policy, result.hit_ratio);
      bench.outcome("serve.edge_hit_share." + policy,
                    requests > 0 ? static_cast<double>(t.edge_hits) / requests : 0.0);
      const double finishes = static_cast<double>(t.stale_events + t.completed());
      bench.outcome("serve.stale_share." + policy,
                    finishes > 0 ? static_cast<double>(t.stale_events) / finishes : 0.0);
      sum.merge(t);
      worst_p99 = std::max(worst_p99, result.p99_download_s);
      results_.push_back(result);
    }
    const double requests = static_cast<double>(sum.requests);
    bench.sample("serve.replay_rps", requests / replay_s);
    const double hit_ratio =
        requests > 0 ? static_cast<double>(sum.deadline_hits) / requests : 0.0;
    bench.outcome("serve.hit_ratio", hit_ratio);
    bench.outcome("hit_ratio", hit_ratio);
    bench.outcome("serve.p99_download_s", worst_p99);
    bench.outcome("serve.cloud_mb_per_request",
                  requests > 0 ? static_cast<double>(sum.cloud_bytes) / 1e6 / requests : 0.0);
    bench.outcome("serve.failover_share",
                  requests > 0 ? static_cast<double>(sum.failovers) / requests : 0.0);
  }

  /// Every replay partitions its requests into terminal states.
  void check_replays(Bench& bench) const {
    for (const serve::ServeResult& result : results_) {
      const serve::ServeMetrics& t = result.totals;
      bench.expect(t.requests > 0, "serve: replay issued no requests");
      bench.expect(t.terminal() == t.requests,
                   "serve: terminal states (" + std::to_string(t.terminal()) +
                       ") do not partition the requests (" + std::to_string(t.requests) + ")");
    }
  }

  std::optional<Deployment> deployment_;
  std::vector<serve::ServeResult> results_;
};

/// fig9's deployment under drifting popularity, replayed by the reactive
/// cache policies.
class DriftWorkload final : public ServeWorkload {
 public:
  explicit DriftWorkload(bool small)
      : ServeWorkload(10, 5), duration_s_(small ? 4000.0 : 40000.0) {}

  void setup(Bench& bench) override {
    sim::ScenarioConfig config;
    config.num_servers = 20;
    config.num_users = 200;
    config.area_side_m = 1400.0;
    config.capacity_bytes = support::gigabytes(1.0);
    config.library_size = 0;  // full 300-model special-case library
    config.special.models_per_family = 100;
    config.requests.per_user_popularity = false;
    config.requests.models_per_user = 0;
    config.radio.backhaul_bps = 1e9;
    setup_deployment(bench, config);

    Timeline::Scope span(bench.timeline, "workload.drift_build");
    workload::DriftingZipfConfig drift_config;
    drift_config.exponent_start = config.requests.zipf_exponent;
    drift_config.exponent_end = 1.2;
    drift_config.epoch_s = duration_s_ / 10.0;
    drift_config.swaps_per_epoch = 30;
    drift_.emplace(
        workload::DriftingZipf::popularity_order(deployment_->scenario.requests),
        duration_s_, drift_config, bench.rng(kDriftStream));
    bench.sample("workload.drift_build_s", span.close());
  }
  void check_setup(Bench& bench) override {
    check_deployment(bench, "serve-drift");
    bench.expect(drift_->num_epochs() > 1, "serve-drift: popularity does not drift");
  }
  void release() override {
    drift_.reset();
    deployment_.reset();
  }

  void pass(Bench& bench) override {
    serve::ServeConfig config;
    config.arrival_rate_per_user = 0.125;  // 25 req/s over K=200 users
    config.duration_s = duration_s_;
    config.drift = &*drift_;
    replay(bench, config, kDriftPolicies);
  }
  void check_pass(Bench& bench) override {
    check_replays(bench);
    std::uint64_t evictions = 0;
    for (const serve::ServeResult& result : results_) evictions += result.totals.cache_evictions;
    bench.expect(evictions > 0, "serve-drift: no cache evictions, the policies went unexercised");
  }

 private:
  double duration_s_;
  std::optional<workload::DriftingZipf> drift_;
};

/// The 100x deployment's static Gen placement under fig9's outage storm,
/// per-request fading and bounded compute.
class StormWorkload final : public ServeWorkload {
 public:
  explicit StormWorkload(bool small)
      : ServeWorkload(10, 1), small_(small), duration_s_(small ? 20000.0 : 40000.0) {}

  void setup(Bench& bench) override {
    const sim::ScenarioConfig config = scale_config(small_);
    setup_deployment(bench, config);

    Timeline::Scope span(bench.timeline, "sim.fault_schedule_build");
    sim::FaultScheduleConfig fault_config;
    fault_config.duration_s = duration_s_;
    fault_config.fault_fraction = 0.15;
    fault_config.mtbf_s = 3000.0;
    fault_config.mttr_s = 600.0;
    fault_config.brownout_factor = 0.5;
    fault_config.brownout_mtbf_s = 8000.0;
    fault_config.brownout_mttr_s = 1000.0;
    faults_.emplace(config.num_servers, fault_config, bench.rng(kFaultStream));
    bench.sample("sim.fault_schedule_build_s", span.close());
  }
  void check_setup(Bench& bench) override {
    check_deployment(bench, "serve-storm");
    bench.expect(faults_->total_outages() > 0,
                 "serve-storm: fault schedule has no outage");
  }
  void release() override {
    faults_.reset();
    deployment_.reset();
  }

  void pass(Bench& bench) override {
    serve::ServeConfig config;
    config.arrival_rate_per_user = 0.1;
    config.duration_s = duration_s_;
    config.average_channel = false;
    config.compute_slots = 8;
    config.faults = &*faults_;
    replay(bench, config, {"static"});
  }
  void check_pass(Bench& bench) override {
    check_replays(bench);
    const serve::ServeMetrics& t = results_.front().totals;
    bench.expect(t.outages > 0, "serve-storm: no outage replayed");
    bench.expect(t.failovers > 0, "serve-storm: no failover replayed");
  }

 private:
  bool small_;
  double duration_s_;
  std::optional<sim::FaultSchedule> faults_;
};

void release(Bench& bench, Workload& workload) {
  Timeline::Scope span(bench.timeline, "bench.release");
  workload.release();
  support::release_freed_memory();
}

/// Sets bench.scenario up setup_reps() times, measures it with one pass and
/// releases it. A traced run measures each scenario twice, traced and
/// untraced in alternating order, and appends the tracing overhead (% of the
/// untraced pass) to `overhead_pct`.
void run_scenario(Bench& bench, Workload& workload, std::vector<double>& overhead_pct) {
  Timeline& tl = bench.timeline;
  for (std::size_t rep = 0; rep < workload.setup_reps(); ++rep, ++bench.setups) {
    if (rep > 0) release(bench, workload);
    {
      Timeline::Scope span(tl, "bench.setup");
      workload.setup(bench);
      bench.sample("setup_s", span.close());
    }
    Timeline::Scope span(tl, "bench.check");
    workload.check_setup(bench);
  }
  const bool trace = bench.args.trace;
  double pass_s[2] = {0.0, 0.0};  // [untraced, traced]
  for (std::size_t run = 0; run < (trace ? 2u : 1u); ++run, ++bench.passes) {
    // Traced first on even scenarios, untraced first on odd ones.
    const bool traced = trace && (run == 0) == (bench.scenario % 2 == 0);
    double& wall_s = pass_s[traced ? 1 : 0];
    tl.set_recording(traced);
    // The sampler's thread start and join stay outside the pass span.
    std::optional<support::RssSampler> rss;
    {
      Timeline::Scope span(tl, "bench.rss_sampler");
      rss.emplace();
    }
    {
      Timeline::Scope span(tl, traced || !trace ? "bench.pass" : "bench.pass_untraced");
      workload.pass(bench);
      wall_s = span.close();
      bench.sample("pipeline_s", wall_s);
    }
    {
      Timeline::Scope span(tl, "bench.rss_sampler");
      const double peak_mb = rss->stop_and_peak_mb();
      bench.sample("peak_rss_mb", peak_mb);
      std::cerr << "scenario " << bench.scenario << (traced ? " traced" : "") << " pass: "
                << wall_s << " s, " << peak_mb << " MB\n";
    }
    tl.set_recording(trace);
    {
      Timeline::Scope span(tl, "bench.check");
      workload.check_pass(bench);
    }
    // Hand the pass's freed pages back, so every pass faults its memory in
    // as a one-shot run of the pipeline would.
    Timeline::Scope span(tl, "bench.release");
    support::release_freed_memory();
  }
  if (trace) overhead_pct.push_back(100.0 * (pass_s[1] - pass_s[0]) / pass_s[0]);
  release(bench, workload);
}

std::unique_ptr<Workload> make_workload(const std::string& name, bool small) {
  if (name == "plan-100x") return std::make_unique<PlanWorkload>(small);
  if (name == "serve-drift") return std::make_unique<DriftWorkload>(small);
  if (name == "serve-storm") return std::make_unique<StormWorkload>(small);
  throw std::invalid_argument("unknown workload '" + name +
                              "' (plan-100x, serve-drift, serve-storm)");
}

// ---------------------------------------------------------------- metrics

struct Metric {
  std::string name;
  std::string unit;
};

const std::vector<Metric>& end_to_end_metrics() {
  static const std::vector<Metric> metrics = {
      {"setup_s", "s"}, {"pipeline_s", "s"}, {"peak_rss_mb", "MB"}, {"hit_ratio", "ratio"},
  };
  return metrics;
}

const std::vector<Metric>& per_layer_metrics() {
  static const std::vector<Metric> metrics = [] {
    std::vector<Metric> out = {
        {"sim.scenario_build_s", "s"},        {"core.problem_build_s", "s"},
        {"core.solve_s", "s"},                {"core.gain_evaluations", "count"},
        {"core.hit_ratio", "ratio"},          {"workload.drift_build_s", "s"},
        {"sim.fault_schedule_build_s", "s"},  {"sim.plan_s", "s"},
        {"sim.tiler_solve_s", "s"},           {"sim.tiler_solve_cpu_s", "s"},
        {"sim.stitch_duplication", "ratio"},  {"sim.repair_build_s", "s"},
        {"sim.repair_build_rss_mb", "MB"},    {"sim.repair_s", "s"},
        {"sim.repair_evicted", "count"},      {"sim.repair_added", "count"},
        {"sim.duplication_after", "ratio"},   {"sim.expected_hit_ratio", "ratio"},
        {"sim.plan_build_s", "s"},
        {"sim.fading_s", "s"},                {"sim.fading_cpu_s", "s"},
        {"sim.fading_rps", "1/s"},            {"sim.fading_hit_ratio", "ratio"},
        {"sim.lowering_builds", "count"},     {"sim.lowering_hits", "count"},
        {"serve.replay_rps", "1/s"},          {"serve.hit_ratio", "ratio"},
        {"serve.p99_download_s", "s"},        {"serve.cloud_mb_per_request", "MB"},
        {"serve.failover_share", "ratio"},
    };
    for (const std::string& policy : kAllPolicies) {
      out.push_back({"serve.replay_s." + policy, "s"});
      out.push_back({"serve.replay_cpu_s." + policy, "s"});
      for (const char* key : {"requests", "edge_hits", "cloud_fetches", "merged_fetches",
                              "cache_evictions", "stale_events", "relays"}) {
        out.push_back({std::string("serve.") + key + "." + policy, "count"});
      }
      out.push_back({"serve.hit_ratio." + policy, "ratio"});
      out.push_back({"serve.edge_hit_share." + policy, "ratio"});
      out.push_back({"serve.stale_share." + policy, "ratio"});
    }
    for (const char* key :
         {"failovers", "failed_over", "aborted", "outages", "recoveries", "compute_rejects"}) {
      out.push_back({std::string("serve.") + key + ".static", "count"});
    }
    out.push_back({"bench.unattributed_s", "s"});
    out.push_back({"bench.span_coverage", "ratio"});
    out.push_back({"bench.trace_overhead_pct", "%"});
    return out;
  }();
  return metrics;
}

// ----------------------------------------------------------------- output

struct StageRow {
  std::string name;
  int depth = 0;
  std::size_t calls = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

/// Aggregates spans by (name, depth) in order of first appearance; self
/// time is a span's duration minus that of its direct children.
std::vector<StageRow> stage_table(const std::vector<Span>& spans) {
  std::vector<double> child_s(spans.size(), 0.0);
  for (const Span& span : spans) {
    if (span.parent >= 0) child_s[static_cast<std::size_t>(span.parent)] += span.end_s - span.start_s;
  }
  std::vector<StageRow> rows;
  std::map<std::pair<std::string, int>, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    const auto key = std::make_pair(span.name, span.depth);
    auto it = index.find(key);
    if (it == index.end()) {
      it = index.emplace(key, rows.size()).first;
      rows.push_back({span.name, span.depth, 0, 0.0, 0.0});
    }
    StageRow& row = rows[it->second];
    ++row.calls;
    row.total_s += span.end_s - span.start_s;
    row.self_s += span.end_s - span.start_s - child_s[i];
  }
  return rows;
}

void print_stage_table(const std::vector<StageRow>& rows, double wall_s, double unattributed_s) {
  std::printf("%-34s %6s %10s %10s %7s\n", "stage", "calls", "total_s", "self_s", "self_%");
  for (const StageRow& row : rows) {
    const std::string label = std::string(static_cast<std::size_t>(2 * row.depth), ' ') + row.name;
    std::printf("%-34s %6zu %10.4f %10.4f %6.2f%%\n", label.c_str(), row.calls, row.total_s,
                row.self_s, 100.0 * row.self_s / wall_s);
  }
  std::printf("%-34s %6s %10s %10.4f %6.2f%%\n", "(unattributed)", "", "", unattributed_s,
              100.0 * unattributed_s / wall_s);
  std::printf("%-34s %6s %10.4f\n", "(wall)", "", wall_s);
}

void write_chrome_trace(const std::string& path, const std::vector<Span>& spans,
                        const std::string& env_json) {
  std::ofstream out(path);
  out << "{\"displayTimeUnit\":\"ms\",\"otherData\":" << env_json << ",\"traceEvents\":[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    out << (i ? ",\n" : "\n") << "{\"name\":\"" << span.name
        << "\",\"cat\":\"" << span.name.substr(0, span.name.find('.')) << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1"
        << ",\"ts\":" << json_number(span.start_s * 1e6)
        << ",\"dur\":" << json_number((span.end_s - span.start_s) * 1e6) << ",\"args\":{\"parent\":\""
        << (span.parent >= 0 ? spans[static_cast<std::size_t>(span.parent)].name : "")
        << "\"";
    for (const auto& [key, value] : span.counters) out << ",\"" << key << "\":" << json_number(value);
    out << "}}";
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("cannot write " + path);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") args.workload = value;
    else if (key == "--seed") args.seed = std::stoull(value);
    else if (key == "--seconds") args.seconds = std::stod(value);
    else if (key == "--trace") args.trace = value == "1";
    else if (key == "--size") {
      if (value != "full" && value != "small") throw std::invalid_argument("--size full|small");
      args.small = value == "small";
    } else if (key == "--git-rev") args.git_rev = value;
    else throw std::invalid_argument("unknown argument " + key);
  }
  if (args.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(args.seconds > 0)) throw std::invalid_argument("--seconds must be positive");
  return args;
}

std::string env_json(const Args& args, const Bench& bench, std::size_t sweeps) {
  std::ostringstream out;
  out << "{\"workload\":\"" << args.workload << "\",\"seed\":" << args.seed
      << ",\"size\":\"" << (args.small ? "small" : "full") << "\",\"trace\":" << args.trace
      << ",\"threads\":" << kThreads << ",\"nproc\":" << sysconf(_SC_NPROCESSORS_ONLN)
      << ",\"simd_backend\":\"" << support::simd::backend_name(support::simd::active_backend())
      << "\",\"git_rev\":\"" << args.git_rev << "\",\"compiler\":\"" << __VERSION__
      << "\",\"sweeps\":" << sweeps << ",\"setups\":" << bench.setups
      << ",\"passes\":" << bench.passes << "}";
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "pipeline_bench: " << e.what() << "\n";
    return 2;
  }

  Bench bench(args);
  Timeline& tl = bench.timeline;
  std::size_t sweeps = 0;
  std::vector<double> overhead_pct;
  std::unique_ptr<Workload> workload;
  try {
    workload = make_workload(args.workload, args.small);
    tl.set_recording(args.trace);
    const double start = tl.now();
    do {
      for (bench.scenario = 0; bench.scenario < workload->scenarios(); ++bench.scenario) {
        run_scenario(bench, *workload, overhead_pct);
      }
      ++sweeps;
    } while (tl.now() - start < args.seconds);
  } catch (const std::exception& e) {
    bench.fail(std::string("exception: ") + e.what());
  }

  const double wall_s = tl.now();
  double top_level_s = 0.0;
  for (const Span& span : tl.spans()) {
    if (span.depth == 0) top_level_s += span.end_s - span.start_s;
  }
  const double unattributed_s = wall_s - top_level_s;
  const std::string env = env_json(args, bench, sweeps);
  const std::size_t attempted = std::max<std::size_t>(1, tl.calls());

  std::vector<std::pair<Metric, double>> metrics;
  if (bench.failed() == 0) {
    if (args.trace) {
      bench.sample("bench.unattributed_s", unattributed_s);
      bench.sample("bench.span_coverage", top_level_s / wall_s);
      bench.sample("bench.trace_overhead_pct", median(overhead_pct));
    }
    for (const Metric& metric : args.trace ? per_layer_metrics() : end_to_end_metrics()) {
      metrics.emplace_back(metric, bench.value(metric.name));
      bench.expect(std::isfinite(metrics.back().second), metric.name + " is not finite");
    }
  }

  std::ostringstream result;
  result << "{\"correct\":" << (bench.failed() == 0 ? "true" : "false")
         << ",\"attempted\":" << attempted << ",\"failed\":" << bench.failed()
         << ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    result << (i ? "," : "") << "\"" << metrics[i].first.name << "\":{\"value\":"
           << json_number(metrics[i].second) << ",\"unit\":\"" << metrics[i].first.unit
           << "\"}";
  }
  result << "}}";

  const std::string out_dir = ".bench_out";
  const std::string stem = out_dir + "/" + args.workload + "-seed" + std::to_string(args.seed) +
                           (args.trace ? "-trace" : "");
  try {
    std::filesystem::create_directories(out_dir);
    if (args.trace) {
      print_stage_table(stage_table(tl.spans()), wall_s, unattributed_s);
      write_chrome_trace(stem + ".trace.json", tl.spans(), env);
      std::printf("trace written to %s.trace.json\n", stem.c_str());
    }
    std::ofstream record(stem + ".json");
    record << "{\"env\":" << env << ",\"result\":" << result.str() << "}\n";
  } catch (const std::exception& e) {
    std::cerr << "pipeline_bench: " << e.what() << "\n";
  }
  std::cout << "env " << env << "\n" << result.str() << std::endl;
  return bench.failed() == 0 ? 0 : 1;
}
