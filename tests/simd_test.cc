// Contracts of the portable SIMD layer (support/simd.h) and the raw-speed
// support plumbing that rides on it:
//
//   * rayleigh_gains: every available backend derives the same uniform bits
//     (gains differ from the scalar reference by transcendental rounding
//     only, <= kMaxUlpError + 1 ULP elementwise) across lane-width and tail
//     sweeps, with no out-of-bounds writes;
//   * inv_rate_from_gains: backend-vs-scalar differences stay within the
//     documented relative bound kMaxRelError, including the zero-bandwidth
//     +inf guard rows;
//   * runtime dispatch: the active backend is available, force_backend
//     overrides it (and rejects unavailable backends), clear_forced_backend
//     restores auto-detection;
//   * EvalPlan::fading_hit_ratio is invariant to thread count and lane-block
//     grouping (bit-identical summaries at threads 1, 3 and 4 across block
//     and tail realization counts), and switching backends moves the summary
//     by at most a tolerance over seeded scenarios;
//   * the channel's batch sampler delegates to the dispatched backend;
//   * Rng::stream_key matches Rng::at(...).seed();
//   * WorkerArena reuses and shrinks slot buffers; parallel_for_chunks
//     partitions exactly;
//   * PlacementSolution::revision moves on real mutations only, and the
//     EvalPlan lowering cache keyed on it reports builds/hits (also through
//     Evaluator::plan_stats) and invalidates on a plan refresh.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "src/core/solver_registry.h"
#include "src/sim/eval_plan.h"
#include "src/sim/evaluator.h"
#include "src/sim/scenario.h"
#include "src/support/parallel.h"
#include "src/support/rng.h"
#include "src/support/simd.h"
#include "src/support/units.h"
#include "src/wireless/channel.h"
#include "src/wireless/topology.h"

namespace trimcaching {
namespace {

namespace simd = support::simd;
using support::Rng;

/// Sweep sizes: every lane phase of the 4-wide AVX2 backend plus straddling
/// tails and a bulk size.
const std::vector<std::size_t>& sweep_sizes() {
  static const std::vector<std::size_t> sizes = {0,  1,  2,  3,  4,   5,   7,
                                                 8,  9,  11, 15, 16,  17,  31,
                                                 63, 64, 67, 96, 128, 1000};
  return sizes;
}

/// Backends to test: scalar always; the dispatched one when it differs.
std::vector<simd::Backend> available_backends() {
  std::vector<simd::Backend> backends = {simd::Backend::kScalar};
  if (simd::active_backend() != simd::Backend::kScalar) {
    backends.push_back(simd::active_backend());
  }
  return backends;
}

/// Distance in ULPs between two finite same-sign doubles.
std::uint64_t ulp_distance(double a, double b) {
  const auto ia = std::bit_cast<std::int64_t>(a);
  const auto ib = std::bit_cast<std::int64_t>(b);
  return static_cast<std::uint64_t>(ia > ib ? ia - ib : ib - ia);
}

TEST(SimdBackend, RayleighGainsMatchScalarWithinUlpBound) {
  const simd::Ops& scalar = simd::ops(simd::Backend::kScalar);
  for (const simd::Backend backend : available_backends()) {
    const simd::Ops& ops = simd::ops(backend);
    for (const std::size_t n : sweep_sizes()) {
      // Canary-padded outputs: the kernels must not write past n.
      std::vector<double> got(n + 8, -7.0);
      std::vector<double> want(n + 8, -7.0);
      const std::uint64_t key = 0x1234abcdull * (n + 1);
      ops.rayleigh_gains(key, n, got.data());
      scalar.rayleigh_gains(key, n, want.data());
      for (std::size_t l = 0; l < n; ++l) {
        ASSERT_GE(want[l], 0.0);
        ASSERT_LE(ulp_distance(got[l], want[l]),
                  static_cast<std::uint64_t>(simd::kMaxUlpError) + 1)
            << simd::backend_name(backend) << " n=" << n << " l=" << l;
      }
      for (std::size_t l = n; l < n + 8; ++l) {
        ASSERT_EQ(got[l], -7.0) << "out-of-bounds write at " << l;
      }
    }
  }
}

TEST(SimdBackend, InvRateMatchesScalarWithinRelativeBound) {
  const simd::Ops& scalar = simd::ops(simd::Backend::kScalar);
  for (const simd::Backend backend : available_backends()) {
    const simd::Ops& ops = simd::ops(backend);
    for (const std::size_t n : sweep_sizes()) {
      Rng rng(n * 13 + 5);
      std::vector<double> bw(n), snr(n), gains(n);
      for (std::size_t l = 0; l < n; ++l) {
        // Every fourth link zero-bandwidth: the +inf guard path.
        bw[l] = l % 4 == 3 ? 0.0 : rng.uniform(1e6, 4e7);
        snr[l] = rng.uniform(0.01, 100.0);
        gains[l] = -std::log(rng.uniform(1e-12, 1.0));
      }
      std::vector<double> got(n + 8, -7.0), want(n + 8, -7.0);
      ops.inv_rate_from_gains(bw.data(), snr.data(), gains.data(), n, got.data());
      scalar.inv_rate_from_gains(bw.data(), snr.data(), gains.data(), n,
                                 want.data());
      for (std::size_t l = 0; l < n; ++l) {
        if (std::isinf(want[l])) {
          ASSERT_EQ(got[l], want[l])
              << simd::backend_name(backend) << " n=" << n << " l=" << l;
        } else {
          ASSERT_LE(std::abs(got[l] - want[l]), simd::kMaxRelError * want[l])
              << simd::backend_name(backend) << " n=" << n << " l=" << l;
        }
      }
      for (std::size_t l = n; l < n + 8; ++l) {
        ASSERT_EQ(got[l], -7.0) << "out-of-bounds write at " << l;
      }
    }
  }
}

TEST(SimdDispatch, ActiveBackendIsAvailableAndForceable) {
  const simd::Backend detected = simd::active_backend();
  ASSERT_TRUE(simd::backend_available(detected));
  ASSERT_TRUE(simd::backend_available(simd::Backend::kScalar));
  ASSERT_STREQ(simd::backend_name(simd::Backend::kScalar), "scalar");

  simd::force_backend(simd::Backend::kScalar);
  ASSERT_EQ(simd::active_backend(), simd::Backend::kScalar);
  ASSERT_EQ(&simd::ops(), &simd::ops(simd::Backend::kScalar));
  simd::clear_forced_backend();
  ASSERT_EQ(simd::active_backend(), detected);

  // AVX2 on a CPU without it, and a value outside the enum on every host:
  // both must be rejected without touching the dispatch decision.
  for (const simd::Backend backend :
       {simd::Backend::kAvx2, static_cast<simd::Backend>(7)}) {
    if (simd::backend_available(backend)) continue;
    EXPECT_THROW(simd::force_backend(backend), std::invalid_argument);
    EXPECT_THROW(static_cast<void>(simd::ops(backend)), std::invalid_argument);
    // A failed force must not disturb the dispatch decision.
    EXPECT_EQ(simd::active_backend(), detected);
  }
}

TEST(SimdDispatch, ChannelBatchSamplerFollowsDispatch) {
  constexpr std::size_t kN = 37;
  const std::uint64_t key = 0xfeedf00dull;
  std::vector<double> via_channel(kN), via_ops(kN);
  simd::force_backend(simd::Backend::kScalar);
  wireless::sample_rayleigh_power_gains(key, kN, via_channel.data());
  simd::ops(simd::Backend::kScalar).rayleigh_gains(key, kN, via_ops.data());
  simd::clear_forced_backend();
  for (std::size_t l = 0; l < kN; ++l) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(via_channel[l]),
              std::bit_cast<std::uint64_t>(via_ops[l]));
  }
}

TEST(RngStreamKey, MatchesAtSeedWithoutEngineConstruction) {
  const Rng rng(0xdeadbeefull);
  for (const std::uint64_t s : {0ull, 1ull, 0xFADEull}) {
    for (const std::uint64_t i : {0ull, 1ull, 7ull, 1000ull}) {
      ASSERT_EQ(rng.stream_key(s, i), rng.at(s, i).seed());
    }
  }
}

// ---------------------------------------------------------------------------
// End-to-end SIMD fading kernel over seeded scenarios.

sim::ScenarioConfig small_config(std::uint64_t seed) {
  sim::ScenarioConfig config;
  config.num_servers = 3 + seed % 6;
  config.num_users = 6 + (seed * 7) % 25;
  config.library_size = 12;
  config.special.models_per_family = 10;
  config.capacity_bytes = support::megabytes(400);
  return config;
}

core::PlacementSolution gen_placement(const sim::Scenario& scenario, Rng rng) {
  const core::PlacementProblem problem = scenario.problem();
  core::SolverContext context(rng.fork(11));
  return core::SolverRegistry::instance()
      .make("gen")
      ->run(problem, context)
      .placement;
}

void expect_same_summary(const support::Summary& a, const support::Summary& b) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.mean), std::bit_cast<std::uint64_t>(b.mean));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.stddev),
            std::bit_cast<std::uint64_t>(b.stddev));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.min), std::bit_cast<std::uint64_t>(b.min));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.max), std::bit_cast<std::uint64_t>(b.max));
  EXPECT_EQ(a.count, b.count);
}

TEST(SimdFadingKernel, ThreadAndLaneBlockInvariant) {
  // Realization counts chosen to hit single-lane, tail-only, whole-block and
  // mixed groupings of the 8-lane blocked hit pass; thread counts reshuffle
  // the chunk boundaries (and with them where the padded tails fall). All
  // must be bit-identical.
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    Rng rng(seed);
    const sim::Scenario scenario = sim::build_scenario(small_config(seed), rng);
    const sim::EvalPlan plan(scenario.topology, scenario.library,
                             scenario.requests);
    const auto placement = gen_placement(scenario, rng);
    const Rng fading(seed * 17 + 1);
    for (const std::size_t realizations :
         {1ull, 7ull, 8ull, 9ull, 16ull, 23ull, 41ull}) {
      const auto serial = plan.fading_hit_ratio(placement, realizations, fading,
                                                1);
      for (const std::size_t threads : {3ull, 4ull}) {
        expect_same_summary(serial, plan.fading_hit_ratio(placement, realizations,
                                                          fading, threads));
      }
    }
  }
}

TEST(SimdFadingKernel, BackendToleranceOverSeededScenarios) {
  // Backend choice perturbs gains/inverse rates by transcendental rounding
  // only; a realization's ratio can move only when a request sits exactly on
  // its deadline knife-edge, so summaries agree to tight tolerance (and are
  // bit-identical in almost every seed). Run at threads 1 and 8.
  const simd::Backend detected = simd::active_backend();
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    Rng rng(seed);
    const sim::Scenario scenario = sim::build_scenario(small_config(seed), rng);
    const sim::EvalPlan plan(scenario.topology, scenario.library,
                             scenario.requests);
    const auto placement = gen_placement(scenario, rng);
    const Rng fading(seed * 31 + 7);

    simd::force_backend(simd::Backend::kScalar);
    const auto scalar1 = plan.fading_hit_ratio(placement, 16, fading, 1);
    const auto scalar8 = plan.fading_hit_ratio(placement, 16, fading, 8);
    simd::clear_forced_backend();
    const auto active1 = plan.fading_hit_ratio(placement, 16, fading, 1);
    const auto active8 = plan.fading_hit_ratio(placement, 16, fading, 8);
    ASSERT_EQ(simd::active_backend(), detected);

    expect_same_summary(scalar1, scalar8);
    expect_same_summary(active1, active8);
    EXPECT_NEAR(scalar1.mean, active1.mean, 1e-9) << "seed " << seed;
    EXPECT_NEAR(scalar1.min, active1.min, 1e-9) << "seed " << seed;
    EXPECT_NEAR(scalar1.max, active1.max, 1e-9) << "seed " << seed;
    EXPECT_EQ(scalar1.count, active1.count);
  }
}

// ---------------------------------------------------------------------------
// Raw-speed support plumbing.

TEST(WorkerArena, ReusesAndShrinksSlotBuffers) {
  support::WorkerArena arena;
  std::vector<double>& a = arena.doubles(0, 100);
  ASSERT_EQ(a.size(), 100u);
  a[0] = 42.0;
  // Growing another slot must not move slot 0 (deque-backed storage).
  std::vector<double>& b = arena.doubles(9, 50);
  ASSERT_EQ(b.size(), 50u);
  std::vector<double>& a_again = arena.doubles(0, 100);
  ASSERT_EQ(&a, &a_again);
  ASSERT_EQ(a_again[0], 42.0);

  // Shrink policy: a slot grown past 4096 doubles shrinks only when the
  // request falls below a quarter of its capacity — near-capacity reuse
  // keeps the allocation (no thrash).
  std::vector<double>& big = arena.doubles(1, 100000);
  ASSERT_GE(big.capacity(), 100000u);
  std::vector<double>& kept = arena.doubles(1, 30000);
  ASSERT_EQ(kept.size(), 30000u);
  ASSERT_GE(kept.capacity(), 100000u);
  std::vector<double>& shrunk = arena.doubles(1, 10);
  ASSERT_EQ(shrunk.size(), 10u);
  ASSERT_LT(shrunk.capacity(), 100000u);

  arena.release();
  ASSERT_EQ(arena.doubles(0, 5).size(), 5u);

  // The thread-local accessor hands back the same arena every call, and
  // trim_worker_arenas (quiescent here) leaves it usable.
  ASSERT_EQ(&support::this_worker_arena(), &support::this_worker_arena());
  (void)support::this_worker_arena().doubles(0, 64);
  support::trim_worker_arenas();
  ASSERT_EQ(support::this_worker_arena().doubles(0, 8).size(), 8u);
}

TEST(ParallelForChunks, PartitionsExactlyOnce) {
  for (const std::size_t n : {0ull, 1ull, 2ull, 5ull, 16ull, 17ull, 100ull}) {
    for (const std::size_t threads : {1ull, 3ull, 8ull}) {
      std::vector<int> cover(n, 0);
      support::parallel_for_chunks(n, threads,
                                   [&](std::size_t begin, std::size_t end) {
                                     ASSERT_LE(begin, end);
                                     ASSERT_LE(end, n);
                                     for (std::size_t i = begin; i < end; ++i) {
                                       ++cover[i];  // chunks are disjoint
                                     }
                                   });
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(cover[i], 1) << "n=" << n << " threads=" << threads
                               << " i=" << i;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Placement revision + lowering cache.

TEST(PlacementRevision, MovesOnRealMutationsOnly) {
  core::PlacementSolution a(3, 4);
  core::PlacementSolution b(3, 4);
  ASSERT_NE(a.revision(), 0u);
  ASSERT_NE(b.revision(), 0u);
  ASSERT_NE(a.revision(), b.revision());

  const std::uint64_t r0 = a.revision();
  a.place(0, 1);
  const std::uint64_t r1 = a.revision();
  ASSERT_NE(r1, r0);
  a.place(0, 1);  // idempotent re-place: no content change, no new revision
  ASSERT_EQ(a.revision(), r1);
  a.remove(0, 1);
  ASSERT_NE(a.revision(), r1);

  // Copies share the revision (equal revision implies equal content), and
  // diverge as soon as either side mutates.
  a.place(1, 2);
  core::PlacementSolution copy = a;
  ASSERT_EQ(copy.revision(), a.revision());
  copy.place(2, 3);
  ASSERT_NE(copy.revision(), a.revision());
}

TEST(LoweringCache, HitsOnSameRevisionRebuildsOnChange) {
  Rng rng(4);
  const sim::Scenario scenario = sim::build_scenario(small_config(4), rng);
  const sim::EvalPlan plan(scenario.topology, scenario.library,
                           scenario.requests);
  auto placement = gen_placement(scenario, rng);
  const Rng fading(99);

  ASSERT_EQ(plan.lowering_builds(), 0u);
  (void)plan.fading_hit_ratio(placement, 4, fading, 1);
  ASSERT_EQ(plan.lowering_builds(), 1u);
  ASSERT_EQ(plan.lowering_hits(), 0u);

  // Same revision: fading and the Eq. 2 walk both reuse the cache.
  (void)plan.fading_hit_ratio(placement, 4, fading, 1);
  (void)plan.expected_hit_ratio(placement);
  ASSERT_EQ(plan.lowering_builds(), 1u);
  ASSERT_EQ(plan.lowering_hits(), 2u);

  // A real mutation moves the revision: rebuild.
  const ModelId model = scenario.topology.num_users() % 12;
  if (placement.placed(0, model)) {
    placement.remove(0, model);
  } else {
    placement.place(0, model);
  }
  (void)plan.fading_hit_ratio(placement, 4, fading, 1);
  ASSERT_EQ(plan.lowering_builds(), 2u);
  ASSERT_EQ(plan.lowering_hits(), 2u);
}

TEST(LoweringCache, InvalidatedByRefreshAndSurfacedByEvaluator) {
  Rng rng(6);
  const sim::ScenarioConfig config = small_config(6);
  const sim::Scenario scenario = sim::build_scenario(config, rng);
  const auto placement = gen_placement(scenario, rng);
  const Rng fading(5);

  // Evaluator path: the per-plan counters of both hit tests accumulate into
  // plan_stats — Eq. 2 builds the lowering, fading on the same revision
  // reuses it.
  wireless::NetworkTopology topology = scenario.topology;
  sim::Evaluator evaluator(topology, scenario.library, scenario.requests);
  (void)evaluator.expected_hit_ratio(placement);
  (void)evaluator.fading_hit_ratio(placement, 4, fading, 1);
  ASSERT_EQ(evaluator.plan_stats().lowering_builds, 1u);
  ASSERT_EQ(evaluator.plan_stats().lowering_hits, 1u);

  // A mobility update changes the link structure the lowering indexes into,
  // so the cached lowering must be discarded even though the placement (and
  // its revision) did not move — the refreshed plan must re-lower.
  std::vector<wireless::Point> positions;
  for (UserId k = 0; k < topology.num_users(); ++k) {
    positions.push_back(topology.user_position(k));
  }
  positions[0] = wireless::Point{topology.area().side_m * 0.5, topology.area().side_m * 0.5};
  topology.update_user_positions(positions);
  (void)evaluator.fading_hit_ratio(placement, 4, fading, 1);
  ASSERT_EQ(evaluator.plan_stats().builds, 1u);
  ASSERT_EQ(evaluator.plan_stats().refreshes, 1u);
  ASSERT_EQ(evaluator.plan_stats().lowering_builds, 2u);
  ASSERT_EQ(evaluator.plan_stats().lowering_hits, 1u);
}

}  // namespace
}  // namespace trimcaching
