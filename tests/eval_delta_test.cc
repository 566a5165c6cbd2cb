// Contracts of the incremental evaluation engine:
//
//   * NetworkTopology::apply_user_moves patches association and the flat
//     link views bit-identically to a full rebuild from the same final
//     positions, across randomized scenarios, move subsets, and chained
//     updates;
//   * EvalPlan::apply_delta yields a plan whose expected_hit_ratio and
//     fading_hit_ratio are bit-identical to a freshly built plan, at
//     threads = 1 and threads = 8;
//   * the structural-churn fallback threshold triggers exactly at the
//     documented boundary (strictly-greater comparison);
//   * the Evaluator never rebuilds on placement-only changes, consumes
//     chaining deltas, and falls back to a rebuild when the chain breaks;
//   * on a compute-constrained topology the Evaluator's joint objective
//     tracks mobility: after each apply_user_moves it equals
//     core::expected_hit_ratio on a fresh problem of the current topology;
//   * the hit pass's per-row thresholds are exact: direct_threshold and
//     relay_threshold return the largest inverse rate the latency tests
//     pass, over random and adversarial (payload, budget, backhaul) triples;
//   * fading_hit_ratio is bit-identical to an independent oracle that draws
//     the same gains but decides Eq. 4/5 straight from the placement, on the
//     scalar and the active SIMD backend, at threads 1, 3 and 4.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "src/core/objective.h"
#include "src/core/solver_registry.h"
#include "src/sim/eval_plan.h"
#include "src/sim/evaluator.h"
#include "src/sim/replacement.h"
#include "src/sim/scenario.h"
#include "src/support/simd.h"
#include "src/support/stats.h"
#include "src/wireless/channel.h"
#include "src/wireless/topology.h"

namespace trimcaching::sim {
namespace {

using support::Rng;
using wireless::NetworkTopology;
using wireless::Point;
using wireless::TopologyDelta;
using wireless::UserMove;

constexpr double kInf = std::numeric_limits<double>::infinity();

ScenarioConfig varied_config(std::uint64_t seed) {
  ScenarioConfig config;
  config.num_servers = 3 + seed % 6;
  config.num_users = 6 + (seed * 7) % 25;
  config.library_size = 12;
  config.special.models_per_family = 10;
  config.capacity_bytes = support::megabytes(400);
  return config;
}

/// A fresh topology from the same deployment at the given user positions —
/// the from-scratch reference the patched topology must match bit for bit.
NetworkTopology reference_topology(const NetworkTopology& like,
                                   std::vector<Point> user_positions) {
  std::vector<Point> servers;
  std::vector<support::Bytes> capacities;
  for (ServerId m = 0; m < like.num_servers(); ++m) {
    servers.push_back(like.server_position(m));
    capacities.push_back(like.capacity(m));
  }
  return NetworkTopology(like.area(), like.radio(), std::move(servers),
                         std::move(user_positions), std::move(capacities));
}

void expect_same_link_views(const NetworkTopology& patched,
                            const NetworkTopology& fresh) {
  ASSERT_EQ(patched.covering_offsets(), fresh.covering_offsets());
  ASSERT_EQ(patched.covering_flat(), fresh.covering_flat());
  const auto expect_bits = [](const std::vector<double>& a,
                              const std::vector<double>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t l = 0; l < a.size(); ++l) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(a[l]), std::bit_cast<std::uint64_t>(b[l]))
          << "link " << l;
    }
  };
  expect_bits(patched.link_bandwidth_hz(), fresh.link_bandwidth_hz());
  expect_bits(patched.link_mean_snr(), fresh.link_mean_snr());
  expect_bits(patched.link_avg_rate_bps(), fresh.link_avg_rate_bps());
  for (ServerId m = 0; m < patched.num_servers(); ++m) {
    EXPECT_EQ(patched.users_of(m), fresh.users_of(m)) << "server " << m;
  }
}

/// The contract is *bit* identity: EXPECT_DOUBLE_EQ tolerates 4 ULPs, so
/// compare the raw bit patterns instead.
void expect_same_bits(double a, double b) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b))
      << a << " vs " << b;
}

void expect_same_summary(const support::Summary& a, const support::Summary& b) {
  expect_same_bits(a.mean, b.mean);
  expect_same_bits(a.stddev, b.stddev);
  expect_same_bits(a.min, b.min);
  expect_same_bits(a.max, b.max);
  EXPECT_EQ(a.count, b.count);
}

TEST(ApplyUserMoves, BitIdenticalToRebuildAcrossRandomScenarios) {
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    Rng rng(seed);
    const ScenarioConfig config = varied_config(seed);
    const Scenario scenario = build_scenario(config, rng);
    const core::PlacementProblem problem = scenario.problem();
    core::SolverContext context(rng.fork(11));
    const auto placement =
        core::SolverRegistry::instance().make("gen")->run(problem, context).placement;

    NetworkTopology topology = scenario.topology;  // the patched copy
    EvalPlan plan(topology, scenario.library, scenario.requests);
    std::vector<Point> positions;
    for (UserId k = 0; k < topology.num_users(); ++k) {
      positions.push_back(topology.user_position(k));
    }

    // Three chained delta rounds: random subsets, jitters and teleports.
    for (int round = 0; round < 3; ++round) {
      std::vector<UserMove> moves;
      for (UserId k = 0; k < topology.num_users(); ++k) {
        if (!rng.bernoulli(0.5)) continue;
        Point p = positions[k];
        if (rng.bernoulli(0.25)) {
          // Teleport: guaranteed coverage churn.
          p = Point{rng.uniform(0.0, topology.area().side_m),
                    rng.uniform(0.0, topology.area().side_m)};
        } else {
          p.x = std::clamp(p.x + rng.uniform(-60.0, 60.0), 0.0,
                           topology.area().side_m);
          p.y = std::clamp(p.y + rng.uniform(-60.0, 60.0), 0.0,
                           topology.area().side_m);
        }
        positions[k] = p;
        moves.push_back(UserMove{k, p});
      }

      const TopologyDelta& delta = topology.apply_user_moves(moves, 1.0);
      ASSERT_FALSE(delta.full) << "seed " << seed;
      ASSERT_TRUE(std::is_sorted(delta.dirty_users.begin(), delta.dirty_users.end()));
      plan.apply_delta(topology, delta);

      const NetworkTopology fresh = reference_topology(topology, positions);
      expect_same_link_views(topology, fresh);

      const EvalPlan fresh_plan(fresh, scenario.library, scenario.requests);
      expect_same_bits(plan.expected_hit_ratio(placement),
                       fresh_plan.expected_hit_ratio(placement));
      const Rng fading(seed * 31 + round);
      expect_same_summary(plan.fading_hit_ratio(placement, 16, fading, 1),
                          fresh_plan.fading_hit_ratio(placement, 16, fading, 1));
      expect_same_summary(plan.fading_hit_ratio(placement, 16, fading, 8),
                          fresh_plan.fading_hit_ratio(placement, 16, fading, 8));
    }
  }
}

TEST(ApplyUserMoves, FallbackThresholdBoundary) {
  // One server at the center; user 0 inside its coverage disc, three users
  // far outside. Moving user 0 out of coverage is exactly one structural
  // user out of four.
  const wireless::Area area{1000.0};
  wireless::RadioConfig radio;
  std::vector<Point> servers = {Point{500, 500}};
  const std::vector<Point> users = {Point{520, 500}, Point{20, 20}, Point{30, 900},
                                    Point{950, 40}};
  const std::vector<support::Bytes> capacities(1, support::gigabytes(1.0));
  const std::vector<UserMove> out_of_coverage = {UserMove{0, Point{950, 950}}};

  {
    // structural_count (1) > 0.25 * K (1) is false -> incremental patch.
    NetworkTopology topology(area, radio, servers, users, capacities);
    const TopologyDelta& delta = topology.apply_user_moves(out_of_coverage, 0.25);
    EXPECT_FALSE(delta.full);
    EXPECT_EQ(delta.dirty_users, std::vector<UserId>{0});
    EXPECT_TRUE(topology.servers_covering(0).empty());
  }
  {
    // structural_count (1) > 0.2 * K (0.8) -> full-rebuild fallback.
    NetworkTopology topology(area, radio, servers, users, capacities);
    const TopologyDelta& delta = topology.apply_user_moves(out_of_coverage, 0.2);
    EXPECT_TRUE(delta.full);
    EXPECT_TRUE(delta.dirty_users.empty());
    EXPECT_TRUE(topology.servers_covering(0).empty());
    // The fallback still lands on the exact same state.
    expect_same_link_views(topology,
                           reference_topology(topology, {Point{950, 950}, users[1],
                                                         users[2], users[3]}));
  }
  {
    // A pure jitter (no coverage change) is never structural: even a zero
    // threshold keeps the incremental path.
    NetworkTopology topology(area, radio, servers, users, capacities);
    const TopologyDelta& delta =
        topology.apply_user_moves({UserMove{0, Point{510, 490}}}, 0.0);
    EXPECT_FALSE(delta.full);
    EXPECT_EQ(delta.dirty_users, std::vector<UserId>{0});
  }
  {
    // Validation: out-of-range and duplicate user ids.
    NetworkTopology topology(area, radio, servers, users, capacities);
    EXPECT_THROW((void)topology.apply_user_moves({UserMove{9, Point{1, 1}}}, 1.0),
                 std::invalid_argument);
    EXPECT_THROW((void)topology.apply_user_moves(
                     {UserMove{0, Point{1, 1}}, UserMove{0, Point{2, 2}}}, 1.0),
                 std::invalid_argument);
    EXPECT_THROW((void)topology.apply_user_moves({}, -0.5), std::invalid_argument);
  }
}

TEST(ApplyUserMoves, EmptyMoveListIsATrueNoOp) {
  Rng rng(91);
  const Scenario scenario = build_scenario(varied_config(6), rng);
  NetworkTopology topology = scenario.topology;
  const Evaluator evaluator(topology, scenario.library, scenario.requests);
  core::SolverContext context(rng.fork(5));
  const auto placement = core::SolverRegistry::instance()
                             .make("gen")
                             ->run(scenario.problem(), context)
                             .placement;
  (void)evaluator.expected_hit_ratio(placement);

  const std::uint64_t revision = topology.revision();
  const TopologyDelta& delta = topology.apply_user_moves({}, 0.5);
  // No revision bump: plan caches keep matching and skip all maintenance.
  EXPECT_EQ(topology.revision(), revision);
  EXPECT_FALSE(delta.full);
  EXPECT_TRUE(delta.dirty_users.empty());
  EXPECT_EQ(delta.from_revision, revision);
  EXPECT_EQ(delta.to_revision, revision);
  (void)evaluator.expected_hit_ratio(placement);
  EXPECT_EQ(evaluator.plan_stats().builds, 1u);
  EXPECT_EQ(evaluator.plan_stats().deltas, 0u);
}

TEST(EvalPlanDelta, RejectsDeltasThatDoNotChain) {
  Rng rng(77);
  const Scenario scenario = build_scenario(varied_config(4), rng);
  NetworkTopology topology = scenario.topology;
  EvalPlan plan(topology, scenario.library, scenario.requests);

  // A full-rebuild delta must not be patchable.
  std::vector<Point> positions;
  for (UserId k = 0; k < topology.num_users(); ++k) {
    positions.push_back(topology.user_position(k));
  }
  topology.update_user_positions(positions);
  EXPECT_TRUE(topology.last_delta().full);
  EXPECT_THROW(plan.apply_delta(topology, topology.last_delta()),
               std::invalid_argument);

  // A stale chain (two updates behind) must not be patchable either.
  EvalPlan fresh(topology, scenario.library, scenario.requests);
  (void)topology.apply_user_moves({UserMove{0, Point{10, 10}}}, 1.0);
  (void)topology.apply_user_moves({UserMove{0, Point{20, 20}}}, 1.0);
  EXPECT_THROW(fresh.apply_delta(topology, topology.last_delta()),
               std::invalid_argument);
}

TEST(Evaluator, PlacementOnlyChangesNeverTriggerARebuild) {
  Rng rng(21);
  const Scenario scenario = build_scenario(varied_config(2), rng);
  const core::PlacementProblem problem = scenario.problem();
  const Evaluator evaluator(scenario.topology, scenario.library, scenario.requests);
  const Rng fading(3);
  for (const char* spec : {"gen", "spec", "independent"}) {
    core::SolverContext context(rng.fork(5));
    const auto placement =
        core::SolverRegistry::instance().make(spec)->run(problem, context).placement;
    (void)evaluator.expected_hit_ratio(placement);
    (void)evaluator.fading_hit_ratio(placement, 8, fading, 2);
  }
  EXPECT_EQ(evaluator.plan_stats().builds, 1u);
  EXPECT_EQ(evaluator.plan_stats().deltas, 0u);
}

TEST(Evaluator, ConsumesChainingDeltasAndRebuildsOtherwise) {
  Rng rng(22);
  Scenario scenario = build_scenario(varied_config(3), rng);
  const core::PlacementProblem problem = scenario.problem();
  core::SolverContext context(rng.fork(5));
  const auto placement =
      core::SolverRegistry::instance().make("gen")->run(problem, context).placement;
  const Evaluator evaluator(scenario.topology, scenario.library, scenario.requests);

  (void)evaluator.expected_hit_ratio(placement);
  EXPECT_EQ(evaluator.plan_stats().builds, 1u);

  // Incremental move -> the evaluator patches instead of rebuilding, and the
  // patched value matches a from-scratch evaluator bit for bit.
  (void)scenario.topology.apply_user_moves({UserMove{0, Point{123, 456}}}, 1.0);
  const double patched = evaluator.expected_hit_ratio(placement);
  EXPECT_EQ(evaluator.plan_stats().builds, 1u);
  EXPECT_EQ(evaluator.plan_stats().deltas, 1u);
  const Evaluator fresh(scenario.topology, scenario.library, scenario.requests);
  expect_same_bits(patched, fresh.expected_hit_ratio(placement));

  // Two updates without an evaluation in between break the chain: rebuild.
  (void)scenario.topology.apply_user_moves({UserMove{1, Point{50, 60}}}, 1.0);
  (void)scenario.topology.apply_user_moves({UserMove{2, Point{70, 80}}}, 1.0);
  (void)evaluator.expected_hit_ratio(placement);
  EXPECT_EQ(evaluator.plan_stats().builds, 2u);
  EXPECT_EQ(evaluator.plan_stats().deltas, 1u);

  // A monolithic update is a full delta: rebuild.
  std::vector<Point> positions;
  for (UserId k = 0; k < scenario.topology.num_users(); ++k) {
    positions.push_back(scenario.topology.user_position(k));
  }
  scenario.topology.update_user_positions(std::move(positions));
  (void)evaluator.expected_hit_ratio(placement);
  EXPECT_EQ(evaluator.plan_stats().builds, 3u);
}

TEST(Evaluator, JointObjectiveFollowsMobility) {
  Rng rng(23);
  ScenarioConfig config = varied_config(5);
  config.compute_capacity = 0.03;  // binds: the joint walk rations inference
  Scenario scenario = build_scenario(config, rng);
  NetworkTopology& topology = scenario.topology;
  ASSERT_TRUE(topology.compute_constrained());
  core::SolverContext context(rng.fork(5));
  const auto placement = core::SolverRegistry::instance()
                             .make("gen")
                             ->run(scenario.problem(), context)
                             .placement;
  const Evaluator evaluator(topology, scenario.library, scenario.requests);
  const auto fresh_value = [&] {
    const core::PlacementProblem problem(topology, scenario.library, scenario.requests);
    return core::expected_hit_ratio(problem, placement);
  };

  const double initial = evaluator.expected_hit_ratio(placement);
  EXPECT_EQ(initial, fresh_value());
  // Each round drags a growing set of users into the origin corner; the third
  // round moves twice before evaluating (a skipped revision).
  bool moved_value = false;
  const Point corner{0.0, 0.0};
  for (std::size_t round = 1; round <= 4; ++round) {
    std::vector<UserMove> moves;
    for (UserId k = 0; k < std::min<std::size_t>(2 * round, topology.num_users()); ++k) {
      moves.push_back(UserMove{k, Point{corner.x + 5.0 * round, corner.y + 3.0 * k}});
    }
    (void)topology.apply_user_moves(moves, 1.0);
    if (round == 3) (void)topology.apply_user_moves({UserMove{0, corner}}, 1.0);
    const double value = evaluator.expected_hit_ratio(placement);
    EXPECT_EQ(value, fresh_value()) << "round " << round;
    if (value != initial) moved_value = true;
  }
  EXPECT_TRUE(moved_value) << "no move changed the joint objective: the "
                              "stale-problem check tested nothing";
}

struct ThresholdCase {
  double payload;
  double budget;
  double backhaul;
};

/// Random triples in the simulator's ranges plus the adversarial corners of
/// the threshold search.
std::vector<ThresholdCase> threshold_cases() {
  std::vector<ThresholdCase> cases;
  Rng rng(2024);
  for (int n = 0; n < 2000; ++n) {
    cases.push_back({rng.uniform(1e6, 1e11), rng.uniform(1e-3, 2.0),
                     rng.uniform(1e8, 1e11)});
  }
  for (const double payload : {8e8, 3.3e9, 1.23456789e10}) {
    for (const double backhaul : {1e9, 10e9, 7.77e9}) {
      const double head = payload / backhaul;
      // Relay head within 1 ulp of the budget, on it, and above it.
      cases.push_back({payload, std::nextafter(head, 0.0), backhaul});
      cases.push_back({payload, head, backhaul});
      cases.push_back({payload, std::nextafter(head, kInf), backhaul});
      cases.push_back({payload, 0.5 * head, backhaul});
    }
    // budget / payload exactly a power of two.
    for (const int e : {-60, -20, -1, 0, 1, 7, 40}) {
      cases.push_back({payload, std::ldexp(payload, e), 10e9});
    }
  }
  // Huge and subnormal quotients, and a zero payload.
  const double max = std::numeric_limits<double>::max();
  const double denorm = std::numeric_limits<double>::denorm_min();
  cases.push_back({1e-300, 1e300, 10e9});
  cases.push_back({denorm, 1.0, 10e9});
  cases.push_back({1.0, max, 1.0});
  cases.push_back({1e300, 1e-300, 10e9});
  cases.push_back({2.0, std::numeric_limits<double>::min(), 10e9});
  cases.push_back({max, denorm, 1e-300});
  cases.push_back({0.0, 1.0, 10e9});
  return cases;
}

/// Reference search: bisection over the bit patterns of [0, +inf] with no
/// starting guess. Returns the largest finite x >= 0 with pass(x), or -1.
template <typename Pass>
double full_bisection(Pass pass) {
  if (!pass(0.0)) return -1.0;
  std::uint64_t lo = 0;
  std::uint64_t hi = std::bit_cast<std::uint64_t>(kInf);
  while (hi - lo > 1) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (pass(std::bit_cast<double>(mid))) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return std::bit_cast<double>(lo);
}

template <typename Pass>
void expect_exact_threshold(double theta, Pass pass) {
  ASSERT_FALSE(pass(kInf)) << "+inf (no link) must never pass";
  EXPECT_EQ(std::bit_cast<std::uint64_t>(theta),
            std::bit_cast<std::uint64_t>(full_bisection(pass)));
  if (theta < 0) {
    EXPECT_EQ(theta, -1.0);
    EXPECT_FALSE(pass(0.0));
    return;
  }
  EXPECT_TRUE(std::isfinite(theta));
  EXPECT_TRUE(pass(theta));
  EXPECT_FALSE(pass(std::nextafter(theta, kInf)));
}

TEST(HitThreshold, LargestInverseRateTheLatencyTestPasses) {
  for (const ThresholdCase& c : threshold_cases()) {
    SCOPED_TRACE(::testing::Message() << std::hexfloat << "payload " << c.payload
                                      << " budget " << c.budget << " backhaul "
                                      << c.backhaul);
    // The hit test's Eq. 4 and Eq. 5 latency expressions, verbatim.
    expect_exact_threshold(direct_threshold(c.payload, c.budget), [&](double inv) {
      return c.payload * inv <= c.budget;
    });
    expect_exact_threshold(
        relay_threshold(c.payload, c.budget, c.backhaul), [&](double inv) {
          return c.payload / c.backhaul + c.payload * inv <= c.budget;
        });
  }
}

/// Independent fading oracle: per realization, the same counter-based gains
/// and backend inverse rates as EvalPlan, but Eq. 4/5 decided per (user,
/// model) by chasing placement.placed() over the topology's covering links
/// with the latency arithmetic written out — no lowering, no thresholds, no
/// lane blocking.
support::Summary oracle_fading_hit_ratio(const Scenario& scenario,
                                         const core::PlacementSolution& placement,
                                         std::size_t realizations, const Rng& rng) {
  const NetworkTopology& topology = scenario.topology;
  const workload::RequestModel& requests = scenario.requests;
  const std::vector<std::size_t>& offsets = topology.covering_offsets();
  const std::vector<ServerId>& covering = topology.covering_flat();
  const std::size_t links = covering.size();
  const double backhaul_bps = topology.radio().backhaul_bps;
  std::vector<double> gains(links);
  std::vector<double> inv_rate(links);
  support::RunningStats stats;
  for (std::size_t r = 0; r < realizations; ++r) {
    wireless::sample_rayleigh_power_gains(rng.stream_key(kFadingStream, r), links,
                                          gains.data());
    support::simd::ops().inv_rate_from_gains(topology.link_bandwidth_hz().data(),
                                             topology.link_mean_snr().data(),
                                             gains.data(), links, inv_rate.data());
    double hit_mass = 0.0;
    for (UserId k = 0; k < topology.num_users(); ++k) {
      double best_inv = std::numeric_limits<double>::infinity();
      for (std::size_t l = offsets[k]; l < offsets[k + 1]; ++l) {
        best_inv = std::min(best_inv, inv_rate[l]);
      }
      for (ModelId i = 0; i < requests.num_models(); ++i) {
        const double p = requests.probability(k, i);
        const double budget = requests.deadline_s(k, i) - requests.inference_s(k, i);
        if (p <= 0.0 || budget <= 0.0) continue;
        const double payload = support::bits(scenario.library.model_size(i));
        bool hit = false;
        std::size_t covering_holders = 0;
        for (std::size_t l = offsets[k]; l < offsets[k + 1]; ++l) {
          if (!placement.placed(covering[l], i)) continue;
          ++covering_holders;
          hit = hit || payload * inv_rate[l] <= budget;  // Eq. 4
        }
        if (!hit && placement.holders_of(i).size() > covering_holders &&
            best_inv < std::numeric_limits<double>::infinity()) {
          hit = payload / backhaul_bps + payload * best_inv <= budget;  // Eq. 5
        }
        if (hit) hit_mass += p;
      }
    }
    stats.add(requests.total_mass() > 0 ? hit_mass / requests.total_mass() : 0.0);
  }
  return support::Summary{stats.mean(), stats.stddev(), stats.min(), stats.max(),
                          stats.count()};
}

TEST(FadingOracle, EvalPlanBitIdenticalOnEveryBackendAndThreadCount) {
  // Realization counts mix whole 8-lane blocks and padded tails; threads 3
  // and 4 reshuffle the chunk boundaries across them.
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    Rng rng(seed);
    const Scenario scenario = build_scenario(varied_config(seed), rng);
    core::SolverContext context(rng.fork(5));
    const auto placement = core::SolverRegistry::instance()
                               .make("gen")
                               ->run(scenario.problem(), context)
                               .placement;
    const EvalPlan plan(scenario.topology, scenario.library, scenario.requests);
    const Rng fading(seed + 100);
    for (const bool scalar : {true, false}) {
      if (scalar) support::simd::force_backend(support::simd::Backend::kScalar);
      for (const std::size_t realizations : {1u, 7u, 8u, 9u, 16u, 23u, 41u}) {
        const support::Summary oracle =
            oracle_fading_hit_ratio(scenario, placement, realizations, fading);
        for (const std::size_t threads : {1u, 3u, 4u}) {
          SCOPED_TRACE(::testing::Message()
                       << "seed " << seed << " scalar " << scalar << " realizations "
                       << realizations << " threads " << threads);
          expect_same_summary(oracle, plan.fading_hit_ratio(placement, realizations,
                                                            fading, threads));
        }
      }
      support::simd::clear_forced_backend();
    }
  }
}

TEST(MobilityStudy, IncrementalBitIdenticalToMonolithic) {
  ScenarioConfig config = varied_config(1);
  MobilityStudyConfig incremental;
  incremental.num_slots = 36;
  incremental.eval_every_slots = 6;
  incremental.fading_realizations = 12;
  incremental.threads = 2;
  incremental.first_solver = "gen";
  incremental.second_solver = "independent";
  MobilityStudyConfig monolithic = incremental;
  monolithic.incremental = false;

  Rng rng_a(5), rng_b(5);
  MobilityStudyTelemetry inc_telemetry, mono_telemetry;
  const auto inc = run_mobility_study(config, incremental, rng_a, &inc_telemetry);
  const auto mono = run_mobility_study(config, monolithic, rng_b, &mono_telemetry);
  ASSERT_EQ(inc.size(), mono.size());
  for (std::size_t p = 0; p < inc.size(); ++p) {
    expect_same_bits(inc[p].spec_hit_ratio, mono[p].spec_hit_ratio);
    expect_same_bits(inc[p].gen_hit_ratio, mono[p].gen_hit_ratio);
  }
  // Every evaluated slot was maintained: patched (or, under heavy structural
  // churn, rebuilt) on the incremental leg, rebuilt on the monolithic leg.
  EXPECT_EQ(inc_telemetry.topology_updates, 6u);
  EXPECT_EQ(inc_telemetry.plan_deltas + inc_telemetry.plan_builds, 6u);
  EXPECT_EQ(mono_telemetry.plan_builds, 6u);
  EXPECT_EQ(mono_telemetry.plan_deltas, 0u);
}

}  // namespace
}  // namespace trimcaching::sim
