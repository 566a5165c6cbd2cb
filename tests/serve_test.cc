// Tests for the online serving subsystem: virtual-time processor sharing
// (stale-event discipline), request merging, the drifting-Zipf workload,
// thread-count bit-identity, the cache-policy factory, and the streaming
// metrics (latency histogram, queue-depth series).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <numeric>

#include "src/core/trimcaching_gen.h"
#include "src/serve/cache_policy.h"
#include "src/serve/engine.h"
#include "src/serve/metrics.h"
#include "src/sim/fault_model.h"
#include "src/sim/scenario.h"
#include "src/workload/drifting_zipf.h"
#include "tests/test_util.h"

namespace trimcaching {
namespace {

using support::Rng;

class ServeSystemTest : public ::testing::Test {
 protected:
  ServeSystemTest() {
    sim::ScenarioConfig config;
    config.num_servers = 5;
    config.num_users = 30;
    config.library_size = 24;
    config.special.models_per_family = 8;
    config.capacity_bytes = support::megabytes(500);
    Rng rng(42);
    scenario_ = std::make_unique<sim::Scenario>(sim::build_scenario(config, rng));
    problem_ = std::make_unique<core::PlacementProblem>(scenario_->problem());
    placement_ = std::make_unique<core::PlacementSolution>(
        core::trimcaching_gen(*problem_).placement);
    empty_ = std::make_unique<core::PlacementSolution>(problem_->num_servers(),
                                                       problem_->num_models());
  }

  [[nodiscard]] serve::ServeResult run(const core::PlacementSolution& placement,
                                       const serve::ServeConfig& config,
                                       std::uint64_t seed) const {
    return serve::simulate_serving(scenario_->topology, scenario_->library,
                                   scenario_->requests, placement, config,
                                   Rng(seed));
  }

  std::unique_ptr<sim::Scenario> scenario_;
  std::unique_ptr<core::PlacementProblem> problem_;
  std::unique_ptr<core::PlacementSolution> placement_;
  std::unique_ptr<core::PlacementSolution> empty_;
};

// ------------------------------------------------------- stale-event discipline

TEST_F(ServeSystemTest, StaleFinishEventsAreDiscardedAndCounted) {
  // Every flow that attaches while a finish event is outstanding bumps the
  // schedule version and strands the old event; under sustained contention
  // that must happen many times, and never corrupt the books.
  serve::ServeConfig config;
  config.arrival_rate_per_user = 0.5;
  config.duration_s = 400.0;
  const auto result = run(*placement_, config, 11);
  const auto& t = result.totals;
  EXPECT_GT(t.stale_events, 100u);
  EXPECT_EQ(t.requests, t.deadline_hits + t.late + t.unserved);
  EXPECT_EQ(t.terminal(), t.requests);
  EXPECT_EQ(t.completed(), t.latency.count());
}

// ------------------------------------------------------- compute admission

TEST_F(ServeSystemTest, ComputeAdmissionRejectsToCloudAndPartitions) {
  // One inference slot per server under sustained load: arrivals that find
  // the slot busy degrade to the cloud (a terminal state, 1:1 with the
  // rejection counter) and the four terminal states still partition the
  // request count exactly.
  serve::ServeConfig config;
  config.arrival_rate_per_user = 0.5;
  config.duration_s = 400.0;
  config.compute_slots = 1;
  const auto constrained = run(*placement_, config, 11);
  const auto& t = constrained.totals;
  EXPECT_GT(t.compute_rejects, 0u);
  EXPECT_EQ(t.compute_rejects, t.cloud_served);
  EXPECT_EQ(t.terminal(), t.requests);
  EXPECT_EQ(t.completed(), t.latency.count());

  // A slot count the workload can never saturate admits everything and
  // reproduces the unlimited replay's per-flow outcomes exactly.
  config.compute_slots = std::size_t{1} << 20;
  const auto roomy = run(*placement_, config, 11);
  config.compute_slots = 0;
  const auto unlimited = run(*placement_, config, 11);
  EXPECT_EQ(roomy.totals.compute_rejects, 0u);
  EXPECT_EQ(roomy.totals.cloud_served, 0u);
  EXPECT_EQ(unlimited.totals.compute_rejects, 0u);
  EXPECT_EQ(roomy.totals.deadline_hits, unlimited.totals.deadline_hits);
  EXPECT_EQ(roomy.totals.late, unlimited.totals.late);
  EXPECT_EQ(roomy.totals.unserved, unlimited.totals.unserved);
  EXPECT_EQ(roomy.totals.download_sum_s, unlimited.totals.download_sum_s);
  EXPECT_EQ(unlimited.totals.terminal(), unlimited.totals.requests);
  // Saturation can only lower the served mass, never raise it.
  EXPECT_LE(t.deadline_hits, unlimited.totals.deadline_hits);
}

TEST(ServeAdmission, BudgetSpentAtArrivalCountsUnserved) {
  // Deadlines strictly shorter than any inference time: every request's
  // download budget is already negative when it arrives, so nothing may be
  // enqueued (a doomed flow would finish late *and* steal processor-sharing
  // bandwidth from viable ones) — the whole replay lands in `unserved`.
  sim::ScenarioConfig config;
  config.num_servers = 3;
  config.num_users = 12;
  config.library_size = 10;
  config.special.models_per_family = 4;
  config.requests.deadline_min_s = 0.10;
  config.requests.deadline_max_s = 0.15;
  config.requests.inference_min_s = 0.20;
  config.requests.inference_max_s = 0.30;
  Rng rng(19);
  const auto scenario = sim::build_scenario(config, rng);
  core::PlacementSolution placement(config.num_servers,
                                    scenario.library.num_models());
  for (ServerId m = 0; m < config.num_servers; ++m) {
    for (ModelId i = 0; i < scenario.library.num_models(); ++i) {
      placement.place(m, i);
    }
  }

  serve::ServeConfig serving;
  serving.arrival_rate_per_user = 0.5;
  serving.duration_s = 100.0;
  const auto result = serve::simulate_serving(scenario.topology, scenario.library,
                                              scenario.requests, placement, serving,
                                              Rng(23));
  const auto& t = result.totals;
  EXPECT_GT(t.requests, 0u);
  EXPECT_EQ(t.unserved, t.requests);
  EXPECT_EQ(t.deadline_hits, 0u);
  EXPECT_EQ(t.late, 0u);
  EXPECT_EQ(t.completed(), 0u);
  EXPECT_EQ(t.latency.count(), 0u);
  EXPECT_EQ(t.terminal(), t.requests);
}

// ------------------------------------------------------------- request merging

TEST(ServeMerging, ConcurrentMissesShareOneFetch) {
  // Cold caches with room for the whole library (no evictions, so nothing
  // is ever re-fetched): each server pulls a block from the cloud at most
  // once, so distinct fetches are bounded by models x servers while the
  // misses that arrived mid-flight merge onto them. Without merging, every
  // early request would open its own transfer.
  sim::ScenarioConfig config;
  config.num_servers = 4;
  config.num_users = 20;
  config.library_size = 16;
  config.special.models_per_family = 6;
  config.capacity_bytes = support::gigabytes(4.0);
  Rng rng(21);
  const auto scenario = sim::build_scenario(config, rng);
  const core::PlacementSolution empty(config.num_servers,
                                      scenario.library.num_models());

  serve::ServeConfig serving;
  serving.policy = "lru";
  serving.arrival_rate_per_user = 1.0;
  serving.duration_s = 300.0;
  const auto result = serve::simulate_serving(scenario.topology, scenario.library,
                                              scenario.requests, empty, serving,
                                              Rng(3));
  const auto& t = result.totals;
  const std::size_t num_models = scenario.library.num_models();
  EXPECT_GT(t.cloud_fetches, 0u);
  EXPECT_LE(t.cloud_fetches, num_models * config.num_servers);
  EXPECT_GT(t.merged_fetches, 0u);
  // Bytes are counted per transfer, not per rider: the total is bounded by
  // one dedup copy of the library per server.
  std::vector<ModelId> all(num_models);
  std::iota(all.begin(), all.end(), ModelId{0});
  EXPECT_LE(t.cloud_bytes, scenario.library.dedup_size(all) * config.num_servers);
  EXPECT_EQ(t.requests, t.deadline_hits + t.late + t.unserved);
  EXPECT_EQ(t.terminal(), t.requests);
}

// -------------------------------------------------------- full-coverage parity

TEST_F(ServeSystemTest, FullCoverageServesEverythingAtTheEdge) {
  // When every server caches the whole library, routing and cache state
  // cannot differ between policies: everything is an edge hit, nothing
  // touches the backhaul or the cloud, and static and LRU agree exactly.
  sim::ScenarioConfig config;
  config.num_servers = 3;
  config.num_users = 12;
  config.library_size = 10;
  config.special.models_per_family = 4;
  config.capacity_bytes = support::gigabytes(4.0);
  Rng rng(7);
  const auto scenario = sim::build_scenario(config, rng);
  core::PlacementSolution placement(config.num_servers,
                                    scenario.library.num_models());
  for (ServerId m = 0; m < config.num_servers; ++m) {
    for (ModelId i = 0; i < scenario.library.num_models(); ++i) {
      placement.place(m, i);
    }
  }
  std::vector<ModelId> all(scenario.library.num_models());
  std::iota(all.begin(), all.end(), ModelId{0});
  ASSERT_LE(scenario.library.dedup_size(all), config.capacity_bytes);

  serve::ServeConfig serving;
  serving.arrival_rate_per_user = 0.1;
  serving.duration_s = 500.0;
  const auto fixed = serve::simulate_serving(scenario.topology, scenario.library,
                                             scenario.requests, placement, serving,
                                             Rng(5));
  serving.policy = "lru";
  const auto reactive = serve::simulate_serving(scenario.topology, scenario.library,
                                                scenario.requests, placement,
                                                serving, Rng(5));
  for (const auto* r : {&fixed, &reactive}) {
    EXPECT_EQ(r->totals.cloud_fetches, 0u);
    EXPECT_EQ(r->totals.relays, 0u);
    EXPECT_EQ(r->totals.edge_hits, r->totals.requests - r->totals.unserved);
  }
  EXPECT_EQ(fixed.totals.deadline_hits, reactive.totals.deadline_hits);
  EXPECT_EQ(fixed.totals.download_sum_s, reactive.totals.download_sum_s);
}

// -------------------------------------------------------- drifting-Zipf sanity

TEST(DriftingZipf, EmpiricalCountsMatchAnalyticPmf) {
  const std::size_t num_models = 20;
  std::vector<ModelId> order(num_models);
  std::iota(order.begin(), order.end(), ModelId{0});
  workload::DriftingZipfConfig config;
  config.exponent_start = 0.7;
  config.exponent_end = 1.3;
  config.epoch_s = 100.0;
  config.swaps_per_epoch = 4;
  const workload::DriftingZipf drift(order, 1000.0, config, Rng(91));

  // Chi-squared against the closed-form pmf inside two different epochs.
  for (const double t : {50.0, 850.0}) {
    double pmf_sum = 0.0;
    for (ModelId i = 0; i < num_models; ++i) pmf_sum += drift.pmf(t, i);
    EXPECT_NEAR(pmf_sum, 1.0, 1e-12);

    const std::size_t draws = 100000;
    std::vector<std::size_t> counts(num_models, 0);
    Rng rng(static_cast<std::uint64_t>(t) + 1);
    for (std::size_t n = 0; n < draws; ++n) ++counts[drift.sample(t, rng)];
    double chi2 = 0.0;
    for (ModelId i = 0; i < num_models; ++i) {
      const double expected = static_cast<double>(draws) * drift.pmf(t, i);
      ASSERT_GT(expected, 0.0);
      const double diff = static_cast<double>(counts[i]) - expected;
      chi2 += diff * diff / expected;
    }
    // 19 degrees of freedom: mean 19, p(chi2 > 60) ~ 4e-6. Deterministic
    // seed, so this is a regression bound, not a flaky gate.
    EXPECT_LT(chi2, 60.0) << "at t=" << t;
  }
}

TEST(DriftingZipf, OrdersStayPermutationsAndExponentRamps) {
  const std::size_t num_models = 16;
  std::vector<ModelId> order(num_models);
  std::iota(order.begin(), order.end(), ModelId{0});
  workload::DriftingZipfConfig config;
  config.exponent_start = 0.5;
  config.exponent_end = 1.5;
  config.epoch_s = 10.0;
  config.swaps_per_epoch = 3;
  const workload::DriftingZipf drift(order, 100.0, config, Rng(13));
  ASSERT_EQ(drift.num_epochs(), 10u);
  for (std::size_t e = 0; e < drift.num_epochs(); ++e) {
    std::vector<char> seen(num_models, 0);
    for (const ModelId i : drift.order_at(e)) {
      ASSERT_LT(i, num_models);
      ASSERT_FALSE(seen[i]);
      seen[i] = 1;
    }
    if (e > 0) {
      EXPECT_GT(drift.exponent_at(e), drift.exponent_at(e - 1));
    }
  }
}

// -------------------------------------------------------- thread bit-identity
//
// Each replay runs at threads 1, 2, 3, 4 and 8, and every result must equal
// the threads=1 one field for field. Comparing the engine with itself is not
// enough, since trace generation is block-parallel over users with a block
// count that follows the thread count: the literals were captured from the
// serial user-by-user generation loop, so matching them shows the
// block-ordered buckets reproduce its push order exactly. The lru and
// priority replays that evict were captured from the ordered-set block cache
// the indexed heap replaced, so they pin its victim order as well.

/// The pinned slice of a ServeResult: every counter, both window series and
/// the latency doubles, compared exactly.
struct Pinned {
  std::vector<std::uint64_t> counters;  // in pinned_counters() order
  std::vector<std::uint32_t> window_requests;
  std::vector<std::uint32_t> window_hits;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double download_sum_s = 0.0;
};

[[nodiscard]] std::vector<std::uint64_t> pinned_counters(const serve::ServeMetrics& t) {
  return {t.requests,       t.deadline_hits,  t.late,          t.unserved,
          t.compute_rejects, t.cloud_served,  t.edge_hits,     t.relays,
          t.cloud_fetches,  t.merged_fetches, t.cloud_bytes,   t.cache_evictions,
          t.stale_events,   t.failovers,      t.failed_over,   t.aborted,
          t.outages,        t.recoveries,     t.rewarms};
}

void expect_pinned(const serve::ServeResult& r, const Pinned& pin) {
  EXPECT_EQ(pinned_counters(r.totals), pin.counters);
  EXPECT_EQ(r.totals.window_requests, pin.window_requests);
  EXPECT_EQ(r.totals.window_hits, pin.window_hits);
  EXPECT_EQ(r.p50_download_s, pin.p50);
  EXPECT_EQ(r.p95_download_s, pin.p95);
  EXPECT_EQ(r.p99_download_s, pin.p99);
  EXPECT_EQ(r.totals.download_sum_s, pin.download_sum_s);
}

/// Runs `config` at every swept thread count; each result must equal the
/// threads=1 one field for field and match the pinned literals.
template <typename Run>
void expect_pinned_at_every_thread_count(serve::ServeConfig config, const Run& run,
                                         const Pinned& pin) {
  config.threads = 1;
  const serve::ServeResult serial = run(config);
  expect_pinned(serial, pin);
  for (const std::size_t threads : {2, 3, 4, 8}) {
    config.threads = threads;
    EXPECT_TRUE(run(config) == serial) << "threads=" << threads;
  }
}

TEST_F(ServeSystemTest, StaticOutageStormMatchesPinnedReplay) {
  // Per-request fading, failover routing, compute rejects and the window
  // series all depend on generation's draws and push order.
  sim::FaultScheduleConfig storm;
  storm.duration_s = 300.0;
  storm.fault_fraction = 0.6;
  storm.mtbf_s = 60.0;
  storm.mttr_s = 25.0;
  storm.degraded_snr_factor = 0.4;
  storm.degrade_mtbf_s = 80.0;
  storm.degrade_mttr_s = 30.0;
  storm.brownout_factor = 0.5;
  storm.brownout_mtbf_s = 100.0;
  storm.brownout_mttr_s = 40.0;
  const sim::FaultSchedule schedule(scenario_->topology.num_servers(), storm, Rng(5));
  serve::ServeConfig config;
  config.arrival_rate_per_user = 0.5;
  config.duration_s = 300.0;
  config.average_channel = false;
  config.compute_slots = 2;
  config.hit_series_windows = 6;
  config.faults = &schedule;
  const Pinned pin{
      {4590, 1523, 4, 2758, 298, 298, 928, 606, 0, 0, 0, 0, 288, 115, 0, 7, 16, 16, 0},
      {787, 755, 758, 767, 797, 726},
      {227, 167, 223, 368, 335, 203},
      0.15963385442879449,
      0.32781211513934627,
      0.40679443210830557,
      270.19271977107894};
  expect_pinned_at_every_thread_count(
      config, [&](const serve::ServeConfig& c) { return run(*placement_, c, 31); }, pin);
}

TEST_F(ServeSystemTest, MetricsBitIdenticalAcrossThreadCounts) {
  const workload::DriftingZipf drift(
      workload::DriftingZipf::popularity_order(scenario_->requests), 300.0,
      workload::DriftingZipfConfig{0.8, 1.1, 50.0, 5}, Rng(77));
  serve::ServeConfig config;
  config.policy = "ewma:tau_s=90";
  config.arrival_rate_per_user = 0.3;
  config.duration_s = 300.0;
  config.average_channel = false;  // per-request fading also in the streams
  config.queue_depth_samples = 64;
  config.hit_series_windows = 5;
  config.drift = &drift;
  config.compute_slots = 2;  // admission decisions also in the replay
  const Pinned pin{
      {2697, 1649, 4, 895, 149, 149, 1177, 476, 0, 0, 0, 514, 289, 0, 0, 0, 0, 0, 0},
      {523, 544, 565, 525, 540},
      {324, 346, 332, 319, 328},
      0.12863969449369764,
      0.26416483203860958,
      0.3522694651473105,
      255.77441824674383};
  expect_pinned_at_every_thread_count(
      config, [&](const serve::ServeConfig& c) { return run(*placement_, c, 29); }, pin);
}

TEST(ServeGeneration, FewerUsersThanBlocksMatchesPinnedReplay) {
  // K = 3 users is fewer than the 16 blocks per thread generation would
  // use, so the block count falls to K: one user per block.
  sim::ScenarioConfig config;
  config.num_servers = 3;
  config.num_users = 3;
  config.area_side_m = 300.0;
  config.library_size = 10;
  config.special.models_per_family = 4;
  Rng rng(13);
  const auto scenario = sim::build_scenario(config, rng);
  const auto placement = core::trimcaching_gen(scenario.problem()).placement;
  serve::ServeConfig serving;
  serving.policy = "lru";
  serving.arrival_rate_per_user = 2.0;
  serving.duration_s = 200.0;
  serving.average_channel = false;
  serving.hit_series_windows = 4;
  const Pinned pin{{1191, 1142, 49, 0, 0, 0, 1191, 0, 0, 0, 0, 0, 711, 0, 0, 0, 0, 0, 0},
                   {294, 308, 311, 278},
                   {287, 289, 299, 267},
                   0.18434229924091139,
                   0.58294153471360877,
                   0.77736503023877679,
                   280.50809899147453};
  expect_pinned_at_every_thread_count(
      serving,
      [&](const serve::ServeConfig& c) {
        return serve::simulate_serving(scenario.topology, scenario.library,
                                       scenario.requests, placement, c, Rng(41));
      },
      pin);
}

TEST_F(ServeSystemTest, LruEvictionReplayMatchesPinnedReplay) {
  // Drift pushes models the warm placement never cached into the head, so
  // the block-LRU admits and evicts throughout: the victim order is pinned
  // through cache_evictions, edge hits and cloud fetches.
  const workload::DriftingZipf drift(
      workload::DriftingZipf::popularity_order(scenario_->requests), 300.0,
      workload::DriftingZipfConfig{0.8, 1.2, 40.0, 6}, Rng(19));
  serve::ServeConfig config;
  config.policy = "lru";
  config.arrival_rate_per_user = 0.4;
  config.duration_s = 300.0;
  config.hit_series_windows = 5;
  config.drift = &drift;
  const Pinned pin{
      {3631, 2441, 5, 1185, 0, 0, 1757, 689, 0, 0, 0, 864, 703, 0, 0, 0, 0, 0, 0},
      {731, 719, 695, 738, 748},
      {480, 495, 476, 486, 504},
      0.13823722273579014,
      0.3522694651473105,
      0.46975888167064989,
      390.05003786034422};
  expect_pinned_at_every_thread_count(
      config, [&](const serve::ServeConfig& c) { return run(*placement_, c, 37); }, pin);
}

TEST_F(ServeSystemTest, PriorityReplayUnderOutagesMatchesPinnedReplay) {
  // The frequency cache under drift and an outage storm: eviction keeps
  // rarely requested models out, and every recovery restarts the cache
  // cold, so the restart path is pinned as well.
  const workload::DriftingZipf drift(
      workload::DriftingZipf::popularity_order(scenario_->requests), 300.0,
      workload::DriftingZipfConfig{0.8, 1.2, 40.0, 6}, Rng(23));
  sim::FaultScheduleConfig storm;
  storm.duration_s = 300.0;
  storm.fault_fraction = 0.6;
  storm.mtbf_s = 70.0;
  storm.mttr_s = 20.0;
  const sim::FaultSchedule schedule(scenario_->topology.num_servers(), storm, Rng(9));
  serve::ServeConfig config;
  config.policy = "priority";
  config.arrival_rate_per_user = 0.4;
  config.duration_s = 300.0;
  config.hit_series_windows = 5;
  config.drift = &drift;
  config.faults = &schedule;
  const Pinned pin{
      {3624, 2283, 58, 1283, 0, 0, 1522, 751, 60, 8, 2229844400, 781, 718, 54, 0, 0, 11, 11, 7},
      {747, 688, 726, 740, 723},
      {491, 414, 481, 427, 470},
      0.13823722273579014,
      0.43714448126110972,
      1.596338544287945,
      446.72207789582063};
  expect_pinned_at_every_thread_count(
      config, [&](const serve::ServeConfig& c) { return run(*placement_, c, 43); }, pin);
}

// ------------------------------------------------------------ config knobs

TEST(ServeConfigValidate, RejectsNonFiniteAndNonPositiveKnobs) {
  // An infinite rate or duration would never end generation's arrival loop,
  // and a NaN rate would silently issue nothing; validate() is the only
  // thing called here, so no replay ever runs with these values.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (double serve::ServeConfig::*knob :
       {&serve::ServeConfig::arrival_rate_per_user, &serve::ServeConfig::duration_s,
        &serve::ServeConfig::cloud_rate_bps}) {
    for (const double bad : {inf, -inf, nan, 0.0, -1.0}) {
      serve::ServeConfig config;
      config.*knob = bad;
      EXPECT_THROW(config.validate(), std::invalid_argument) << bad;
    }
  }
  EXPECT_NO_THROW(serve::ServeConfig{}.validate());
}

TEST(ServeDrift, RejectsUsersThatRequestPartOfTheLibrary) {
  // Drift may draw any model for any user, but the request model keeps QoS
  // only for each user's p > 0 support: a partial support is refused up
  // front, naming the knob that made it partial.
  sim::ScenarioConfig config;
  config.num_servers = 3;
  config.num_users = 6;
  config.library_size = 12;
  config.special.models_per_family = 4;
  for (const std::size_t interest : {std::size_t{5}, std::size_t{0}}) {
    config.requests.models_per_user = interest;
    Rng rng(3);
    const auto scenario = sim::build_scenario(config, rng);
    const core::PlacementSolution placement(scenario.topology.num_servers(),
                                            scenario.library.num_models());
    const workload::DriftingZipf drift(
        workload::DriftingZipf::popularity_order(scenario.requests), 50.0,
        workload::DriftingZipfConfig{}, Rng(5));
    serve::ServeConfig serving;
    serving.duration_s = 50.0;
    serving.drift = &drift;
    const auto replay = [&] {
      return serve::simulate_serving(scenario.topology, scenario.library,
                                     scenario.requests, placement, serving, Rng(7));
    };
    if (interest == 0) {
      EXPECT_NO_THROW((void)replay());
      continue;
    }
    try {
      (void)replay();
      ADD_FAILURE() << "a drift replay over a partial support ran";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("drift"), std::string::npos) << what;
      EXPECT_NE(what.find("models_per_user"), std::string::npos) << what;
    }
  }
}

// ----------------------------------------------------------- policy factory

TEST(CachePolicyFactory, KnownPoliciesConstructAndReportNames) {
  for (const std::string& name : serve::known_cache_policies()) {
    const auto policy = serve::make_cache_policy(name);
    EXPECT_EQ(policy->name(), name);
    EXPECT_EQ(policy->reactive(), name != "static");
  }
}

TEST(CachePolicyFactory, RejectsUnknownSpecs) {
  EXPECT_THROW((void)serve::make_cache_policy("arc"), std::invalid_argument);
  EXPECT_THROW((void)serve::make_cache_policy(""), std::invalid_argument);
  EXPECT_THROW((void)serve::make_cache_policy("ewma:tau=5"), std::invalid_argument);
  EXPECT_THROW((void)serve::make_cache_policy("ewma:tau_s=0"), std::invalid_argument);
  EXPECT_THROW((void)serve::make_cache_policy("lru:tau_s=5"), std::invalid_argument);
  EXPECT_NO_THROW((void)serve::make_cache_policy("ewma:tau_s=5"));
}

// ------------------------------------------------------------- metrics units

TEST(LatencyHistogram, QuantilesLandInTheRightBin) {
  serve::LatencyHistogram h;
  for (int n = 0; n < 90; ++n) h.add(0.1);
  for (int n = 0; n < 9; ++n) h.add(10.0);
  h.add(100.0);
  EXPECT_EQ(h.count(), 100u);
  // Log-spaced bins are ~7.5% wide; allow 10% either side of the midpoint.
  EXPECT_NEAR(h.quantile(0.50), 0.1, 0.01);
  EXPECT_NEAR(h.quantile(0.95), 10.0, 1.0);
  EXPECT_NEAR(h.quantile(0.99), 100.0, 10.0);
}

TEST(LatencyHistogram, UnderAndOverflowClampToTheRange) {
  serve::LatencyHistogram h;
  h.add(1e-9);
  h.add(1e9);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), serve::LatencyHistogram::kMinSeconds);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), serve::LatencyHistogram::kMaxSeconds);

  serve::LatencyHistogram other;
  other.add(1.0);
  h.merge(other);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_NEAR(h.quantile(0.5), 1.0, 0.1);
}

TEST_F(ServeSystemTest, QueueDepthSeriesHasTheRequestedShape) {
  serve::ServeConfig config;
  config.arrival_rate_per_user = 0.3;
  config.duration_s = 200.0;
  config.queue_depth_samples = 50;
  const auto result = run(*placement_, config, 17);
  ASSERT_EQ(result.totals.queue_depth.size(), 50u);
  // Sample 0 is taken at t = 0, before any Poisson arrival can attach.
  EXPECT_EQ(result.totals.queue_depth.front(), 0u);
  std::uint32_t peak = 0;
  for (const std::uint32_t depth : result.totals.queue_depth) {
    peak = std::max(peak, depth);
  }
  EXPECT_GT(peak, 0u);
}

}  // namespace
}  // namespace trimcaching
