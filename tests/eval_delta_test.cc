// Contracts of the evaluation engine across topology revisions:
//
//   * EvalPlan::refresh after NetworkTopology::update_user_positions yields
//     a plan whose expected_hit_ratio and fading_hit_ratio are bit-identical
//     to a fresh plan over a from-scratch topology, across randomized
//     scenarios, move subsets, and chained updates, at threads = 1 and
//     threads = 8;
//   * the Evaluator never rebuilds on placement-only changes, builds its
//     request rows once, and refreshes its link rates once per observed
//     topology revision — mobility, availability masks and derating alike —
//     bit-identically to a fresh Evaluator;
//   * on a compute-constrained topology the Evaluator's joint objective
//     tracks mobility: after each position update it equals
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
/// the from-scratch reference the updated topology must match bit for bit.
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

void expect_same_link_views(const NetworkTopology& updated,
                            const NetworkTopology& fresh) {
  ASSERT_EQ(updated.covering_offsets(), fresh.covering_offsets());
  ASSERT_EQ(updated.covering_flat(), fresh.covering_flat());
  const auto expect_bits = [](const std::vector<double>& a,
                              const std::vector<double>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t l = 0; l < a.size(); ++l) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(a[l]), std::bit_cast<std::uint64_t>(b[l]))
          << "link " << l;
    }
  };
  expect_bits(updated.link_bandwidth_hz(), fresh.link_bandwidth_hz());
  expect_bits(updated.link_mean_snr(), fresh.link_mean_snr());
  expect_bits(updated.link_avg_rate_bps(), fresh.link_avg_rate_bps());
  for (ServerId m = 0; m < updated.num_servers(); ++m) {
    EXPECT_EQ(updated.users_of(m), fresh.users_of(m)) << "server " << m;
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

/// User k's position for every k: the vector update_user_positions takes.
std::vector<Point> positions_of(const NetworkTopology& topology) {
  std::vector<Point> positions;
  for (UserId k = 0; k < topology.num_users(); ++k) {
    positions.push_back(topology.user_position(k));
  }
  return positions;
}

TEST(PlanRefresh, BitIdenticalToRebuildAcrossRandomScenarios) {
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    Rng rng(seed);
    const ScenarioConfig config = varied_config(seed);
    const Scenario scenario = build_scenario(config, rng);
    const core::PlacementProblem problem = scenario.problem();
    core::SolverContext context(rng.fork(11));
    const auto placement =
        core::SolverRegistry::instance().make("gen")->run(problem, context).placement;

    NetworkTopology topology = scenario.topology;  // the moving copy
    EvalPlan plan(topology, scenario.library, scenario.requests);
    std::vector<Point> positions = positions_of(topology);

    // Three chained rounds: random subsets, jitters and teleports.
    for (int round = 0; round < 3; ++round) {
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
      }

      topology.update_user_positions(positions);
      plan.refresh(topology);
      ASSERT_EQ(plan.topology_revision(), topology.revision()) << "seed " << seed;

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
  EXPECT_EQ(evaluator.plan_stats().refreshes, 0u);
}

TEST(Evaluator, BuildsRowsOnceAndRefreshesRatesPerObservedRevision) {
  Rng rng(22);
  Scenario scenario = build_scenario(varied_config(3), rng);
  const core::PlacementProblem problem = scenario.problem();
  core::SolverContext context(rng.fork(5));
  const auto placement =
      core::SolverRegistry::instance().make("gen")->run(problem, context).placement;
  const Evaluator evaluator(scenario.topology, scenario.library, scenario.requests);
  const EvalPlan* const plan = &evaluator.plan();
  const Rng fading(9);

  // Scores the placement through the long-lived evaluator, checks that it
  // still holds its one plan and its counters, and compares both hit tests
  // with a from-scratch Evaluator.
  const auto expect_fresh_values = [&](std::size_t refreshes) {
    const double value = evaluator.expected_hit_ratio(placement);
    const support::Summary faded = evaluator.fading_hit_ratio(placement, 8, fading, 2);
    EXPECT_EQ(&evaluator.plan(), plan);
    EXPECT_EQ(evaluator.plan_stats().builds, 1u);
    EXPECT_EQ(evaluator.plan_stats().refreshes, refreshes);
    const Evaluator fresh(scenario.topology, scenario.library, scenario.requests);
    expect_same_bits(value, fresh.expected_hit_ratio(placement));
    expect_same_summary(faded, fresh.fading_hit_ratio(placement, 8, fading, 2));
  };
  expect_fresh_values(0);

  // One position update -> one refresh; the rows are not rebuilt.
  std::vector<Point> positions = positions_of(scenario.topology);
  positions[0] = Point{123, 456};
  scenario.topology.update_user_positions(positions);
  expect_fresh_values(1);

  // Two updates without an evaluation in between -> one refresh, to the
  // latest revision.
  positions[1] = Point{50, 60};
  scenario.topology.update_user_positions(positions);
  positions[2] = Point{70, 80};
  scenario.topology.update_user_positions(positions);
  expect_fresh_values(2);

  // No revision change -> no refresh.
  expect_fresh_values(2);
}

TEST(Evaluator, RefreshesAcrossAvailabilityRevisionsBitIdenticalToFresh) {
  // The fault-scoring path (score_under_outages): one Evaluator follows its
  // topology through a mask, a derating and a restore. After each step both
  // hit tests must equal a fresh Evaluator over a from-scratch topology
  // carrying the same mask, with the request rows still from the one build.
  Rng rng(24);
  const Scenario scenario = build_scenario(varied_config(7), rng);
  core::SolverContext context(rng.fork(5));
  const auto placement = core::SolverRegistry::instance()
                             .make("gen")
                             ->run(scenario.problem(), context)
                             .placement;
  NetworkTopology topology = scenario.topology;
  const std::size_t servers = topology.num_servers();
  const Evaluator evaluator(topology, scenario.library, scenario.requests);
  const double nominal = evaluator.expected_hit_ratio(placement);
  const Rng fading(17);

  std::vector<char> mask(servers, 1);
  mask[0] = 0;
  std::vector<double> derating(servers, 1.0);
  for (std::size_t m = 0; m < servers; m += 2) derating[m] = 0.05;
  struct Step {
    const char* name;
    std::vector<char> up;
    std::vector<double> snr_derating;
  };
  const std::vector<Step> steps = {
      {"mask", mask, {}}, {"derate", {}, derating}, {"restore", {}, {}}};
  bool changed = false;
  for (std::size_t s = 0; s < steps.size(); ++s) {
    const Step& step = steps[s];
    SCOPED_TRACE(step.name);
    topology.set_availability(step.up, step.snr_derating);
    NetworkTopology fresh = reference_topology(topology, positions_of(topology));
    if (!step.up.empty() || !step.snr_derating.empty()) {
      fresh.set_availability(step.up, step.snr_derating);
    }
    const Evaluator reference(fresh, scenario.library, scenario.requests);
    const double value = evaluator.expected_hit_ratio(placement);
    expect_same_bits(value, reference.expected_hit_ratio(placement));
    for (const std::size_t threads : {1u, 3u}) {
      expect_same_summary(evaluator.fading_hit_ratio(placement, 23, fading, threads),
                          reference.fading_hit_ratio(placement, 23, fading, threads));
    }
    EXPECT_EQ(evaluator.plan_stats().builds, 1u);
    EXPECT_EQ(evaluator.plan_stats().refreshes, s + 1);
    if (value != nominal) changed = true;
  }
  // The restored topology is the unmasked one again.
  expect_same_bits(evaluator.expected_hit_ratio(placement), nominal);
  EXPECT_TRUE(changed) << "no availability step moved the hit ratio: the "
                          "refresh was never exercised on different rates";
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
  std::vector<Point> positions = positions_of(topology);
  for (std::size_t round = 1; round <= 4; ++round) {
    for (UserId k = 0; k < std::min<std::size_t>(2 * round, topology.num_users()); ++k) {
      positions[k] = Point{corner.x + 5.0 * round, corner.y + 3.0 * k};
    }
    topology.update_user_positions(positions);
    if (round == 3) {
      positions[0] = corner;
      topology.update_user_positions(positions);
    }
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
                                             gains.data(), 1, links,
                                             inv_rate.data());
    double hit_mass = 0.0;
    for (UserId k = 0; k < topology.num_users(); ++k) {
      double best_inv = std::numeric_limits<double>::infinity();
      for (std::size_t l = offsets[k]; l < offsets[k + 1]; ++l) {
        best_inv = std::min(best_inv, inv_rate[l]);
      }
      for (ModelId i = 0; i < requests.num_models(); ++i) {
        const double p = requests.probability(k, i);
        if (p <= 0.0) continue;  // a p = 0 pair has no QoS
        const double budget = requests.deadline_s(k, i) - requests.inference_s(k, i);
        if (budget <= 0.0) continue;
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
  // Realization counts mix whole 16-lane blocks and padded tails; threads 3
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
      for (const std::size_t realizations : {1u, 15u, 16u, 17u, 31u, 33u, 41u}) {
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

}  // namespace
}  // namespace trimcaching::sim
