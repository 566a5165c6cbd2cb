// Tests of the unified Solver API: registry round-trips (every registered
// name resolves, solves, and returns a capacity-feasible placement),
// adapter-vs-legacy equivalence on fixed seeds, spec-string parsing, and
// composition semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>

#include "src/core/baselines.h"
#include "src/core/exact_solver.h"
#include "src/core/independent_caching.h"
#include "src/core/local_search.h"
#include "src/core/objective.h"
#include "src/core/solver_registry.h"
#include "src/core/trimcaching_gen.h"
#include "src/core/trimcaching_spec.h"
#include "tests/test_util.h"

namespace trimcaching::core {
namespace {

void expect_storage_feasible(const PlacementProblem& problem,
                             const PlacementSolution& placement) {
  for (ServerId m = 0; m < problem.num_servers(); ++m) {
    EXPECT_LE(problem.library().dedup_size(placement.models_on(m)),
              problem.capacity(m))
        << "server " << m;
  }
}

TEST(SolverRegistry, ListsAllBuiltinSolvers) {
  const auto infos = SolverRegistry::instance().list();
  std::vector<std::string> names;
  for (const auto& info : infos) {
    names.push_back(info.name);
    EXPECT_FALSE(info.summary.empty()) << info.name;
  }
  for (const char* expected : {"spec", "gen", "gen_naive", "independent", "exact",
                               "top_pop", "random", "ls", "repair"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << "missing solver '" << expected << "'";
  }
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

// Every registered name must resolve, solve a small scenario, and return a
// capacity-feasible placement whose reported ratio matches Eq. 2.
TEST(SolverRegistry, EveryRegisteredSolverRoundTrips) {
  const auto world = testutil::random_world(5, 2, 8, 10, 12, 30.0);
  const auto problem = world.problem();
  for (const auto& info : SolverRegistry::instance().list()) {
    const auto solver = SolverRegistry::instance().make(info.name);
    ASSERT_NE(solver, nullptr) << info.name;
    EXPECT_EQ(solver->name(), info.name);
    EXPECT_FALSE(solver->title().empty()) << info.name;
    SolverContext context(99);
    const SolverOutcome outcome = solver->run(problem, context);
    expect_storage_feasible(problem, outcome.placement);
    EXPECT_NEAR(outcome.hit_ratio, expected_hit_ratio(problem, outcome.placement),
                1e-12)
        << info.name;
    EXPECT_GE(outcome.hit_ratio, 0.0) << info.name;
    EXPECT_LE(outcome.hit_ratio, 1.0 + 1e-12) << info.name;
    EXPECT_GE(outcome.wall_seconds, 0.0) << info.name;
  }
}

// ------------------------------------------------- adapter-vs-legacy parity

class AdapterEquivalence : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  [[nodiscard]] static double via_registry(const PlacementProblem& problem,
                                           const std::string& spec,
                                           std::uint64_t seed = 7) {
    SolverContext context(seed);
    return SolverRegistry::instance().make(spec)->run(problem, context).hit_ratio;
  }
};

TEST_P(AdapterEquivalence, MatchesLegacyFreeFunctions) {
  const auto world = testutil::random_world(GetParam(), 3, 10, 12, 14, 40.0);
  const auto problem = world.problem();

  EXPECT_DOUBLE_EQ(via_registry(problem, "spec"),
                   trimcaching_spec(problem).hit_ratio);
  EXPECT_DOUBLE_EQ(via_registry(problem, "gen"), trimcaching_gen(problem).hit_ratio);
  EXPECT_DOUBLE_EQ(via_registry(problem, "gen:lazy=0"),
                   trimcaching_gen(problem, GenConfig{.lazy = false}).hit_ratio);
  EXPECT_DOUBLE_EQ(via_registry(problem, "gen_naive"),
                   trimcaching_gen(problem, GenConfig{.lazy = false}).hit_ratio);
  EXPECT_DOUBLE_EQ(via_registry(problem, "independent"),
                   independent_caching(problem).hit_ratio);
  EXPECT_DOUBLE_EQ(via_registry(problem, "exact"), exact_optimal(problem).hit_ratio);
  EXPECT_DOUBLE_EQ(via_registry(problem, "top_pop"),
                   top_popularity_caching(problem).hit_ratio);
  {
    // Same seed on both sides: the adapter draws from the context RNG.
    support::Rng legacy_rng(7);
    EXPECT_DOUBLE_EQ(via_registry(problem, "random", 7),
                     random_placement(problem, legacy_rng).hit_ratio);
  }
  {
    const auto gen = trimcaching_gen(problem);
    EXPECT_DOUBLE_EQ(via_registry(problem, "gen+ls"),
                     local_search(problem, gen.placement).hit_ratio);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AdapterEquivalence,
                         ::testing::Range<std::uint64_t>(0, 6));

// ---------------------------------------------------------- counters / bound

TEST(SolverRegistry, OutcomeCarriesWorkCounters) {
  const auto world = testutil::random_world(3, 3, 10, 12, 14, 40.0);
  const auto problem = world.problem();
  SolverContext context(1);

  const auto gen = SolverRegistry::instance().make("gen")->run(problem, context);
  EXPECT_GT(gen.gain_evaluations, 0u);

  const auto spec = SolverRegistry::instance().make("spec")->run(problem, context);
  EXPECT_GT(spec.iterations, 0u);  // combinations visited

  const auto exact = SolverRegistry::instance().make("exact")->run(problem, context);
  EXPECT_GT(exact.iterations, 0u);  // B&B nodes
  ASSERT_TRUE(exact.optimality_bound.has_value());
  EXPECT_DOUBLE_EQ(*exact.optimality_bound, exact.hit_ratio);
  // The exact optimum dominates every heuristic.
  EXPECT_GE(exact.hit_ratio + 1e-9, gen.hit_ratio);
  EXPECT_GE(exact.hit_ratio + 1e-9, spec.hit_ratio);
}

// --------------------------------------------------------------- spec parsing

TEST(SolverRegistry, UnknownNameListsAvailableSolvers) {
  try {
    (void)SolverRegistry::instance().make("nonsense");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("nonsense"), std::string::npos);
    // The error is self-diagnosing: it lists every registered name.
    EXPECT_NE(message.find("spec"), std::string::npos);
    EXPECT_NE(message.find("gen"), std::string::npos);
    EXPECT_NE(message.find("independent"), std::string::npos);
  }
}

TEST(SolverRegistry, RejectsMalformedSpecs) {
  auto& registry = SolverRegistry::instance();
  EXPECT_THROW((void)registry.make(""), std::invalid_argument);
  EXPECT_THROW((void)registry.make("gen+"), std::invalid_argument);
  EXPECT_THROW((void)registry.make("+ls"), std::invalid_argument);
  EXPECT_THROW((void)registry.make("gen:bogus_key=1"), std::invalid_argument);
  EXPECT_THROW((void)registry.make("gen:lazy=maybe"), std::invalid_argument);
  EXPECT_THROW((void)registry.make("spec:mode=psychic"), std::invalid_argument);
  // Only refiners may appear right of '+'.
  EXPECT_THROW((void)registry.make("gen+spec"), std::invalid_argument);
}

TEST(SolverRegistry, BadSpecKnobsFailNamingTheKnob) {
  // A bad knob must fail the run with a message naming it: not a signal
  // (states=0 divides the storage quantum), an unrelated message (eps=nan)
  // or an empty placement (eps=1e-300 overflows the rounded profits).
  const auto world = testutil::random_world(5, 3, 10, 12, 14, 40.0);
  const auto problem = world.problem();
  SolverContext context(1);
  for (const auto& [spec, knob] : {std::pair{"spec:mode=profit,states=0", "states"},
                                   std::pair{"spec:eps=nan", "eps"},
                                   std::pair{"spec:eps=1e-300", "eps"}}) {
    try {
      (void)SolverRegistry::instance().make(spec)->run(problem, context);
      ADD_FAILURE() << spec << " ran without an error";
    } catch (const std::exception& e) {
      EXPECT_NE(std::string(e.what()).find(knob), std::string::npos)
          << spec << ": " << e.what();
    }
  }
}

TEST(SolverRegistry, OptionsChangeBehavior) {
  const auto world = testutil::random_world(11, 3, 10, 12, 14, 40.0);
  const auto problem = world.problem();
  SolverContext context(1);
  const auto lazy =
      SolverRegistry::instance().make("gen")->run(problem, context);
  const auto naive =
      SolverRegistry::instance().make("gen:lazy=0")->run(problem, context);
  // Same greedy value sequence, but the lazy driver evaluates fewer gains.
  EXPECT_NEAR(lazy.hit_ratio, naive.hit_ratio, 1e-9);
  EXPECT_LE(lazy.gain_evaluations, naive.gain_evaluations);

  const auto weight_dp = SolverRegistry::instance()
                             .make("spec:mode=weight,states=40")
                             ->run(problem, context);
  expect_storage_feasible(problem, weight_dp.placement);
}

// --------------------------------------------------------------- composition

TEST(SolverRegistry, CompositionRefinesAndAccumulatesCounters) {
  const auto world = testutil::random_world(21, 3, 10, 12, 14, 40.0);
  const auto problem = world.problem();
  SolverContext context(1);
  const auto base = SolverRegistry::instance().make("independent")->run(problem,
                                                                        context);
  const auto composed =
      SolverRegistry::instance().make("independent+ls")->run(problem, context);
  EXPECT_GE(composed.hit_ratio, base.hit_ratio - 1e-12);
  expect_storage_feasible(problem, composed.placement);

  const auto solver = SolverRegistry::instance().make("gen+ls");
  EXPECT_EQ(solver->name(), "gen+ls");
  EXPECT_EQ(solver->title(), "TrimCaching Gen + 1-swap Local Search");
}

TEST(SolverRegistry, ExpiredDeadlineSkipsRefinement) {
  const auto world = testutil::random_world(8, 3, 10, 12, 14, 40.0);
  const auto problem = world.problem();

  SolverContext plain(1);
  const auto gen = SolverRegistry::instance().make("gen")->run(problem, plain);

  SolverContext expired(1);
  expired.set_deadline_after(0.0);  // already past
  std::vector<std::string> events;
  expired.trace = [&](std::string_view event) { events.emplace_back(event); };
  const auto composed =
      SolverRegistry::instance().make("gen+ls")->run(problem, expired);
  // The base result passes through untouched and the skip is announced.
  EXPECT_DOUBLE_EQ(composed.hit_ratio, gen.hit_ratio);
  EXPECT_EQ(composed.gain_evaluations, gen.gain_evaluations);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_NE(events[0].find("deadline"), std::string::npos);
}

TEST(SolverRegistry, StandaloneLocalSearchBuildsFromEmpty) {
  const auto world = testutil::random_world(17, 2, 8, 10, 12, 30.0);
  const auto problem = world.problem();
  SolverContext context(1);
  const auto outcome = SolverRegistry::instance().make("ls")->run(problem, context);
  expect_storage_feasible(problem, outcome.placement);
  // Pure-add moves alone must reach a maximal placement: positive ratio on
  // any world where something is reachable.
  if (problem.reachable_mass() > 0) {
    EXPECT_GT(outcome.hit_ratio, 0.0);
  }
}

// ----------------------------------------------------------------- extension

TEST(SolverRegistry, UserRegisteredSolverIsCreatable) {
  // The whole point of the registry: adding a policy is one registration.
  class ConstantSolver final : public Solver {
   public:
    std::string name() const override { return "noop_for_test"; }
    std::string title() const override { return "No-op"; }
    SolverOutcome solve(const PlacementProblem& problem,
                        SolverContext&) const override {
      return SolverOutcome(
          PlacementSolution(problem.num_servers(), problem.num_models()));
    }
  };
  auto& registry = SolverRegistry::instance();
  if (!registry.contains("noop_for_test")) {
    registry.add("noop_for_test", "does nothing (test double)",
                 [](const support::Options& options) -> std::unique_ptr<Solver> {
                   options.check_unknown({});
                   return std::make_unique<ConstantSolver>();
                 });
  }
  const auto world = testutil::random_world(1, 2, 6, 8, 10, 20.0);
  const auto problem = world.problem();
  SolverContext context(1);
  const auto outcome =
      registry.make("noop_for_test")->run(problem, context);
  EXPECT_DOUBLE_EQ(outcome.hit_ratio, 0.0);
  EXPECT_THROW(registry.add("noop_for_test", "dup", nullptr),
               std::invalid_argument);
}

}  // namespace
}  // namespace trimcaching::core
