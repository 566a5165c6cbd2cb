// Contracts of the failure-aware serving path (sim/fault_model.h +
// serve/engine.cc fault threading):
//
//   * zero-fault equivalence — running with no schedule, with a nullptr
//     schedule, and with an inert schedule are byte-for-byte identical
//     across every ServeMetrics field and derived statistic;
//   * thread bit-identity under an outage storm — threads=1 and threads=8
//     agree exactly, including every new failure counter and the
//     time-sliced hit-ratio windows;
//   * the six terminal states (hits, late, unserved, cloud, failed-over,
//     aborted) partition the request count exactly under faults;
//   * recovery semantics — reactive caches come back cold and measure a
//     re-warm transient, static caches are re-pushed from the placement;
//   * schedule semantics — half-open outage intervals, counter-based
//     determinism, prone-set stability;
//   * availability scoring — all-up sampling reproduces the nominal Eq. 2
//     value, outages only lower it, and K-replica redundancy is rewarded.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "src/core/trimcaching_gen.h"
#include "src/serve/engine.h"
#include "src/serve/metrics.h"
#include "src/sim/fault_model.h"
#include "src/sim/scenario.h"
#include "tests/test_util.h"

namespace trimcaching {
namespace {

using support::Rng;

/// Every field of two serving results must match exactly — the comparison
/// the zero-fault and thread-identity contracts are stated in.
void expect_identical(const serve::ServeResult& a, const serve::ServeResult& b) {
  EXPECT_EQ(a.totals.requests, b.totals.requests);
  EXPECT_EQ(a.hit_ratio, b.hit_ratio);
  EXPECT_TRUE(a == b) << "serving results differ in some field";
}

class FaultModelTest : public ::testing::Test {
 protected:
  FaultModelTest() {
    sim::ScenarioConfig config;
    config.num_servers = 8;
    config.num_users = 40;
    config.library_size = 24;
    config.special.models_per_family = 8;
    config.capacity_bytes = support::megabytes(500);
    Rng rng(42);
    scenario_ = std::make_unique<sim::Scenario>(sim::build_scenario(config, rng));
    problem_ = std::make_unique<core::PlacementProblem>(scenario_->problem());
    placement_ = std::make_unique<core::PlacementSolution>(
        core::trimcaching_gen(*problem_).placement);
  }

  [[nodiscard]] serve::ServeResult run(const serve::ServeConfig& config,
                                       std::uint64_t seed) const {
    return serve::simulate_serving(scenario_->topology, scenario_->library,
                                   scenario_->requests, *placement_, config,
                                   Rng(seed));
  }

  /// A storm schedule that exercises all three fault families: ~half the
  /// fleet flapping, degraded downlinks, and backhaul brownouts.
  [[nodiscard]] sim::FaultSchedule storm(double duration_s) const {
    sim::FaultScheduleConfig config;
    config.duration_s = duration_s;
    config.fault_fraction = 0.5;
    config.mtbf_s = 120.0;
    config.mttr_s = 40.0;
    config.degraded_snr_factor = 0.5;
    config.degrade_mtbf_s = 150.0;
    config.degrade_mttr_s = 50.0;
    config.brownout_factor = 0.5;
    config.brownout_mtbf_s = 200.0;
    config.brownout_mttr_s = 60.0;
    return sim::FaultSchedule(scenario_->topology.num_servers(), config, Rng(17));
  }

  std::unique_ptr<sim::Scenario> scenario_;
  std::unique_ptr<core::PlacementProblem> problem_;
  std::unique_ptr<core::PlacementSolution> placement_;
};

// -------------------------------------------------------- zero-fault identity

TEST_F(FaultModelTest, InertScheduleIsByteIdenticalToNoSchedule) {
  // An all-healthy schedule must replay the fault-free engine byte for byte
  // — the contract that lets the fault path ship inside the one engine
  // without perturbing every existing baseline.
  serve::ServeConfig config;
  config.arrival_rate_per_user = 0.3;
  config.duration_s = 400.0;
  config.queue_depth_samples = 32;
  config.hit_series_windows = 8;
  for (const char* policy : {"static", "lru"}) {
    config.policy = policy;
    config.faults = nullptr;
    const auto without = run(config, 11);

    sim::FaultScheduleConfig inert_config;
    inert_config.duration_s = config.duration_s;  // all fault families off
    const sim::FaultSchedule inert(scenario_->topology.num_servers(), inert_config,
                                   Rng(17));
    ASSERT_TRUE(inert.inert());
    config.faults = &inert;
    const auto with_inert = run(config, 11);
    expect_identical(without, with_inert);
    EXPECT_EQ(with_inert.totals.outages, 0u);
    EXPECT_EQ(with_inert.totals.failovers, 0u);
  }
}

TEST_F(FaultModelTest, WindowSeriesPartitionsRequestsWithoutFaults) {
  // The time-sliced hit-ratio series is fault-independent plumbing: the
  // window sums must reproduce the run totals exactly.
  serve::ServeConfig config;
  config.arrival_rate_per_user = 0.3;
  config.duration_s = 400.0;
  config.hit_series_windows = 10;
  const auto result = run(config, 11);
  ASSERT_EQ(result.totals.window_requests.size(), 10u);
  ASSERT_EQ(result.totals.window_hits.size(), 10u);
  std::uint64_t requests = 0;
  std::uint64_t hits = 0;
  for (std::size_t w = 0; w < 10; ++w) {
    requests += result.totals.window_requests[w];
    hits += result.totals.window_hits[w];
    EXPECT_LE(result.totals.window_hits[w], result.totals.window_requests[w]);
  }
  EXPECT_EQ(requests, result.totals.requests);
  EXPECT_EQ(hits, result.totals.deadline_hits);
}

// --------------------------------------------------- storm replay contracts

TEST_F(FaultModelTest, StormReplayIsBitIdenticalAcrossThreadCounts) {
  const sim::FaultSchedule schedule = storm(400.0);
  ASSERT_FALSE(schedule.inert());
  ASSERT_GT(schedule.total_outages(), 0u);
  serve::ServeConfig config;
  config.arrival_rate_per_user = 0.3;
  config.duration_s = 400.0;
  config.policy = "lru";
  config.faults = &schedule;
  config.queue_depth_samples = 32;
  config.hit_series_windows = 8;
  config.threads = 1;
  const auto serial = run(config, 11);
  config.threads = 8;
  const auto threaded = run(config, 11);
  EXPECT_GT(serial.totals.outages, 0u);
  expect_identical(serial, threaded);
}

TEST_F(FaultModelTest, TerminalStatesPartitionRequestsUnderStorm) {
  const sim::FaultSchedule schedule = storm(400.0);
  serve::ServeConfig config;
  config.arrival_rate_per_user = 0.3;
  config.duration_s = 400.0;
  config.faults = &schedule;
  for (const char* policy : {"static", "lru", "ewma:tau_s=60"}) {
    config.policy = policy;
    const auto result = run(config, 11);
    const auto& t = result.totals;
    EXPECT_EQ(t.deadline_hits + t.late + t.unserved + t.cloud_served +
                  t.failed_over + t.aborted,
              t.requests)
        << policy;
    EXPECT_EQ(t.terminal(), t.requests) << policy;
    // The storm must actually engage the failover machinery somewhere.
    EXPECT_GT(t.failovers + t.failed_over + t.aborted, 0u) << policy;
    EXPECT_GT(t.outages, 0u) << policy;
    EXPECT_LE(t.recoveries, t.outages) << policy;
  }
}

TEST_F(FaultModelTest, ReactiveCacheRewarmsAfterRecoveryStaticIsRepushed) {
  const sim::FaultSchedule schedule = storm(600.0);
  serve::ServeConfig config;
  config.arrival_rate_per_user = 0.5;
  config.duration_s = 600.0;
  config.faults = &schedule;
  config.rewarm_fraction = 0.5;

  config.policy = "lru";
  const auto reactive = run(config, 11);
  EXPECT_GT(reactive.totals.recoveries, 0u);
  EXPECT_GT(reactive.totals.rewarms, 0u)
      << "a recovered lru cache never climbed back to the re-warm threshold";
  EXPECT_GT(reactive.mean_rewarm_s, 0.0);
  EXPECT_LE(reactive.totals.rewarms, reactive.totals.recoveries);

  // Static caches are re-pushed from the placement at recovery (operator
  // restore) — there is no admit-on-miss transient to measure.
  config.policy = "static";
  const auto pushed = run(config, 11);
  EXPECT_GT(pushed.totals.recoveries, 0u);
  EXPECT_EQ(pushed.totals.rewarms, 0u);
  EXPECT_EQ(pushed.mean_rewarm_s, 0.0);
}

TEST_F(FaultModelTest, EngineRejectsMismatchedScheduleSize) {
  sim::FaultScheduleConfig fault_config;
  fault_config.duration_s = 400.0;
  const sim::FaultSchedule wrong_size(scenario_->topology.num_servers() + 3,
                                      fault_config, Rng(17));
  serve::ServeConfig config;
  config.faults = &wrong_size;
  EXPECT_THROW((void)run(config, 11), std::invalid_argument);
}

// ------------------------------------------------------- schedule semantics

TEST_F(FaultModelTest, OutageIntervalsAreHalfOpenAndDeterministic) {
  const sim::FaultSchedule a = storm(400.0);
  const sim::FaultSchedule b = storm(400.0);
  ASSERT_EQ(a.num_servers(), b.num_servers());
  ASSERT_GT(a.faulty_servers(), 0u);
  bool saw_outage = false;
  for (ServerId m = 0; m < a.num_servers(); ++m) {
    const auto& intervals = a.outages(m);
    ASSERT_EQ(intervals.size(), b.outages(m).size()) << "server " << m;
    double previous_end = 0.0;
    for (std::size_t k = 0; k < intervals.size(); ++k) {
      saw_outage = true;
      EXPECT_EQ(intervals[k].begin_s, b.outages(m)[k].begin_s);
      EXPECT_EQ(intervals[k].end_s, b.outages(m)[k].end_s);
      // Ascending, disjoint, half-open: down at begin, up again at end.
      EXPECT_GE(intervals[k].begin_s, previous_end);
      EXPECT_GT(intervals[k].end_s, intervals[k].begin_s);
      previous_end = intervals[k].end_s;
      EXPECT_FALSE(a.is_up(m, intervals[k].begin_s));
      EXPECT_TRUE(a.is_up(m, intervals[k].end_s));
      EXPECT_TRUE(a.is_up(m, intervals[k].begin_s - 1e-9));
      const double mid = 0.5 * (intervals[k].begin_s + intervals[k].end_s);
      EXPECT_FALSE(a.is_up(m, mid));
      EXPECT_EQ(a.up_mask(mid)[m], 0);
    }
    // Degradation factors are per-server constants inside (0, 1].
    EXPECT_GT(a.snr_factor(m, 0.0), 0.0);
    EXPECT_LE(a.snr_factor(m, 0.0), 1.0);
  }
  EXPECT_TRUE(saw_outage);
  // Brownouts modulate the backhaul factor between the configured value and 1.
  ASSERT_FALSE(a.brownouts().empty());
  const auto& brown = a.brownouts().front();
  EXPECT_EQ(a.backhaul_factor(0.5 * (brown.begin_s + brown.end_s)), 0.5);
  EXPECT_EQ(a.backhaul_factor(brown.end_s), 1.0);
}

TEST(FaultScheduleConfig, ValidateRejectsBadValues) {
  const auto expect_throws = [](auto mutate) {
    sim::FaultScheduleConfig config;
    config.fault_fraction = 0.5;
    config.mtbf_s = 100.0;
    config.mttr_s = 10.0;
    mutate(config);
    EXPECT_THROW(config.validate(), std::invalid_argument);
  };
  expect_throws([](auto& c) { c.duration_s = 0.0; });
  expect_throws([](auto& c) { c.duration_s = std::nan(""); });
  expect_throws([](auto& c) { c.fault_fraction = -0.1; });
  expect_throws([](auto& c) { c.fault_fraction = 1.5; });
  expect_throws([](auto& c) { c.fault_fraction = std::nan(""); });
  expect_throws([](auto& c) { c.mtbf_s = 0.0; });   // enabled family needs it
  expect_throws([](auto& c) { c.mttr_s = -5.0; });
  expect_throws([](auto& c) { c.degraded_snr_factor = 0.0; });
  expect_throws([](auto& c) { c.degraded_snr_factor = 0.5; });  // missing mtbf
  expect_throws([](auto& c) { c.brownout_factor = 1.5; });
  expect_throws([](auto& c) {
    c.brownout_factor = 0.5;  // missing brownout mtbf/mttr
  });
  sim::FaultScheduleConfig fine;
  fine.fault_fraction = 0.5;
  fine.mtbf_s = 100.0;
  fine.mttr_s = 10.0;
  EXPECT_NO_THROW(fine.validate());
}

// ------------------------------------------------------ availability scoring

TEST_F(FaultModelTest, AvailabilityOneReproducesTheNominalScore) {
  const auto score =
      sim::score_under_outages(scenario_->topology, scenario_->library,
                               scenario_->requests, *placement_, 1.0, 4, Rng(5));
  EXPECT_DOUBLE_EQ(score.expected_hit_ratio, score.nominal_hit_ratio);
  EXPECT_DOUBLE_EQ(score.worst_hit_ratio, score.nominal_hit_ratio);
  EXPECT_GT(score.nominal_hit_ratio, 0.0);
}

TEST_F(FaultModelTest, OutagesOnlyLowerTheScoreAndRedundancyHelps) {
  const auto score =
      sim::score_under_outages(scenario_->topology, scenario_->library,
                               scenario_->requests, *placement_, 0.6, 16, Rng(5));
  EXPECT_LE(score.expected_hit_ratio, score.nominal_hit_ratio + 1e-12);
  EXPECT_LE(score.worst_hit_ratio, score.expected_hit_ratio + 1e-12);
  EXPECT_LT(score.expected_hit_ratio, score.nominal_hit_ratio);

  // Replicating every model on every server is the redundancy ceiling: under
  // the same outage masks it must score at least as well as the solver
  // placement (K surviving replicas keep the hit mass).
  core::PlacementSolution everywhere(placement_->num_servers(),
                                     placement_->num_models());
  for (ServerId m = 0; m < placement_->num_servers(); ++m) {
    for (ModelId i = 0; i < placement_->num_models(); ++i) {
      everywhere.place(m, i);
    }
  }
  const auto replicated =
      sim::score_under_outages(scenario_->topology, scenario_->library,
                               scenario_->requests, everywhere, 0.6, 16, Rng(5));
  EXPECT_GE(replicated.expected_hit_ratio, score.expected_hit_ratio);

  // The caller's topology is never mutated by the masking.
  EXPECT_TRUE(scenario_->topology.fully_available());
}

TEST_F(FaultModelTest, AvailabilityScoringValidatesItsInputs) {
  const auto call = [&](double availability, std::size_t samples) {
    return sim::score_under_outages(scenario_->topology, scenario_->library,
                                    scenario_->requests, *placement_, availability,
                                    samples, Rng(5));
  };
  EXPECT_THROW((void)call(0.0, 4), std::invalid_argument);
  EXPECT_THROW((void)call(-0.5, 4), std::invalid_argument);
  EXPECT_THROW((void)call(1.5, 4), std::invalid_argument);
  EXPECT_THROW((void)call(std::nan(""), 4), std::invalid_argument);
  EXPECT_THROW((void)call(0.9, 0), std::invalid_argument);
}

// ------------------------------------------------------- topology masking

TEST_F(FaultModelTest, AvailabilityMaskZeroesLinksAndRestores) {
  wireless::NetworkTopology topology = scenario_->topology;
  ASSERT_TRUE(topology.fully_available());
  const std::size_t M = topology.num_servers();

  std::vector<char> up(M, 1);
  up[0] = 0;
  topology.set_availability(up);
  EXPECT_FALSE(topology.fully_available());
  EXPECT_FALSE(topology.available(0));
  EXPECT_TRUE(topology.available(1));
  for (UserId k = 0; k < topology.num_users(); ++k) {
    EXPECT_EQ(topology.avg_rate_bps(0, k), 0.0) << "user " << k;
  }

  // Pick a live link of a server other than the masked one (the topology is
  // sparse, so not every (m, k) pair carries a rate).
  ServerId live_m = 1;
  UserId live_k = 0;
  double reference = 0.0;
  for (ServerId m = 1; m < M && reference == 0.0; ++m) {
    for (UserId k = 0; k < topology.num_users() && reference == 0.0; ++k) {
      if (scenario_->topology.avg_rate_bps(m, k) > 0.0) {
        live_m = m;
        live_k = k;
        reference = scenario_->topology.avg_rate_bps(m, k);
      }
    }
  }
  ASSERT_GT(reference, 0.0);

  // Other servers' links are untouched by the mask, and an all-up mask
  // recomputes the original link state bit for bit. Clearing the mask
  // entirely (empty vectors) restores the "no mask" state.
  EXPECT_EQ(topology.avg_rate_bps(live_m, live_k), reference);
  topology.set_availability(std::vector<char>(M, 1));
  EXPECT_TRUE(topology.available(0));
  for (UserId k = 0; k < topology.num_users(); ++k) {
    EXPECT_EQ(topology.avg_rate_bps(0, k), scenario_->topology.avg_rate_bps(0, k));
  }
  topology.set_availability({});
  EXPECT_TRUE(topology.fully_available());

  // Derating multiplies SNR, which strictly lowers the rate.
  std::vector<double> derate(M, 1.0);
  derate[live_m] = 0.25;
  topology.set_availability(std::vector<char>(M, 1), derate);
  EXPECT_LT(topology.avg_rate_bps(live_m, live_k), reference);
  EXPECT_GT(topology.avg_rate_bps(live_m, live_k), 0.0);

  // Size and range validation.
  EXPECT_THROW(topology.set_availability(std::vector<char>(M + 1, 1)),
               std::invalid_argument);
  std::vector<double> bad(M, 1.0);
  bad[0] = -0.5;
  EXPECT_THROW(topology.set_availability(std::vector<char>(M, 1), bad),
               std::invalid_argument);
}

}  // namespace
}  // namespace trimcaching
