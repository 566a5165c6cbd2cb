#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <utility>

#include "src/core/trimcaching_gen.h"
#include "src/sim/evaluator.h"
#include "src/sim/experiment.h"
#include "src/sim/monte_carlo.h"
#include "src/sim/replacement.h"
#include "src/sim/scenario.h"

namespace trimcaching::sim {
namespace {

using support::Rng;

ScenarioConfig small_config() {
  ScenarioConfig config;
  config.num_servers = 4;
  config.num_users = 8;
  config.library_size = 12;
  config.special.models_per_family = 10;
  config.capacity_bytes = support::megabytes(400);
  return config;
}

// ------------------------------------------------------------------- Scenario

TEST(Scenario, BuildsConsistentDimensions) {
  Rng rng(1);
  const auto config = small_config();
  const Scenario scenario = build_scenario(config, rng);
  EXPECT_EQ(scenario.topology.num_servers(), 4u);
  EXPECT_EQ(scenario.topology.num_users(), 8u);
  EXPECT_EQ(scenario.library.num_models(), 12u);
  EXPECT_EQ(scenario.requests.num_users(), 8u);
  EXPECT_EQ(scenario.requests.num_models(), 12u);
  const auto problem = scenario.problem();
  EXPECT_EQ(problem.num_servers(), 4u);
}

TEST(Scenario, LibraryKinds) {
  for (const auto kind :
       {LibraryKind::kSpecialCase, LibraryKind::kGeneralCase, LibraryKind::kLora}) {
    Rng rng(2);
    ScenarioConfig config = small_config();
    config.library_kind = kind;
    config.library_size = 10;
    const auto lib = build_library(config, rng);
    EXPECT_EQ(lib.num_models(), 10u) << static_cast<int>(kind);
  }
}

TEST(Scenario, FullLibraryWhenSizeZero) {
  Rng rng(3);
  ScenarioConfig config = small_config();
  config.library_size = 0;
  config.special.models_per_family = 7;
  const auto lib = build_library(config, rng);
  EXPECT_EQ(lib.num_models(), 21u);
}

TEST(Scenario, ValidationErrors) {
  Rng rng(4);
  ScenarioConfig config = small_config();
  config.num_servers = 0;
  EXPECT_THROW((void)build_scenario(config, rng), std::invalid_argument);
  config = small_config();
  config.capacity_bytes = 0;
  EXPECT_THROW((void)build_scenario(config, rng), std::invalid_argument);
}

TEST(Scenario, DeterministicForSameSeed) {
  Rng rng_a(42), rng_b(42);
  const auto a = build_scenario(small_config(), rng_a);
  const auto b = build_scenario(small_config(), rng_b);
  EXPECT_DOUBLE_EQ(a.topology.user_position(0).x, b.topology.user_position(0).x);
  EXPECT_EQ(a.library.num_blocks(), b.library.num_blocks());
  EXPECT_DOUBLE_EQ(a.requests.probability(0, 0), b.requests.probability(0, 0));
}

// ------------------------------------------------------------------ Evaluator

class EvaluatorTest : public ::testing::Test {
 protected:
  EvaluatorTest() : rng_(11), scenario_(build_scenario(small_config(), rng_)) {}
  Rng rng_;
  Scenario scenario_;
};

TEST_F(EvaluatorTest, ExpectedMatchesObjective) {
  const auto problem = scenario_.problem();
  const auto result = core::trimcaching_gen(problem);
  const Evaluator evaluator(scenario_.topology, scenario_.library, scenario_.requests);
  // The evaluator recomputes Eq. 2 from the topology; it must agree with the
  // problem's precomputed objective on the same snapshot.
  EXPECT_NEAR(evaluator.expected_hit_ratio(result.placement), result.hit_ratio, 1e-12);
}

TEST_F(EvaluatorTest, EmptyPlacementZero) {
  const Evaluator evaluator(scenario_.topology, scenario_.library, scenario_.requests);
  core::PlacementSolution empty(scenario_.topology.num_servers(),
                                scenario_.library.num_models());
  EXPECT_DOUBLE_EQ(evaluator.expected_hit_ratio(empty), 0.0);
  const auto fading = evaluator.fading_hit_ratio(empty, 10, rng_);
  EXPECT_DOUBLE_EQ(fading.mean, 0.0);
}

TEST_F(EvaluatorTest, FadingCloseToExpectedOnAverage) {
  const auto problem = scenario_.problem();
  const auto result = core::trimcaching_gen(problem);
  const Evaluator evaluator(scenario_.topology, scenario_.library, scenario_.requests);
  const auto fading = evaluator.fading_hit_ratio(result.placement, 400, rng_);
  EXPECT_EQ(fading.count, 400u);
  // Rayleigh fading perturbs rates both ways; the mean fading ratio stays in
  // a broad band around the average-rate ratio.
  EXPECT_NEAR(fading.mean, evaluator.expected_hit_ratio(result.placement), 0.25);
  EXPECT_GE(fading.min, 0.0);
  EXPECT_LE(fading.max, 1.0 + 1e-12);
}

TEST_F(EvaluatorTest, FadingDeterministicGivenSeed) {
  const auto problem = scenario_.problem();
  const auto result = core::trimcaching_gen(problem);
  const Evaluator evaluator(scenario_.topology, scenario_.library, scenario_.requests);
  Rng a(5), b(5);
  EXPECT_DOUBLE_EQ(evaluator.fading_hit_ratio(result.placement, 50, a).mean,
                   evaluator.fading_hit_ratio(result.placement, 50, b).mean);
}

TEST_F(EvaluatorTest, InvalidArgs) {
  const Evaluator evaluator(scenario_.topology, scenario_.library, scenario_.requests);
  core::PlacementSolution empty(scenario_.topology.num_servers(),
                                scenario_.library.num_models());
  EXPECT_THROW((void)evaluator.fading_hit_ratio(empty, 0, rng_),
               std::invalid_argument);
}

// ----------------------------------------------------------------- MonteCarlo

TEST(MonteCarlo, ComparisonRunsAllSolvers) {
  ScenarioConfig config = small_config();
  MonteCarloConfig mc;
  mc.topologies = 3;
  mc.fading_realizations = 30;
  const auto stats = run_comparison(config, {"spec", "gen", "independent"}, mc);
  ASSERT_EQ(stats.size(), 3u);
  for (const auto& s : stats) {
    EXPECT_EQ(s.fading_hit_ratio.count, 3u);
    EXPECT_GE(s.fading_hit_ratio.mean, 0.0);
    EXPECT_LE(s.fading_hit_ratio.mean, 1.0 + 1e-12);
    EXPECT_GE(s.runtime_seconds.mean, 0.0);
  }
  // Dedup-aware algorithms dominate the baseline on sharing-heavy libraries.
  EXPECT_GE(stats[0].expected_hit_ratio.mean, stats[2].expected_hit_ratio.mean - 0.02);
  EXPECT_GE(stats[1].expected_hit_ratio.mean, stats[2].expected_hit_ratio.mean - 0.02);
  // The stats echo the spec and the registry's display title.
  EXPECT_EQ(stats[0].spec, "spec");
  EXPECT_EQ(stats[0].title, "TrimCaching Spec");
  EXPECT_EQ(stats[1].title, "TrimCaching Gen");
  EXPECT_EQ(stats[2].title, "Independent Caching");
  // The greedy solvers report their marginal-gain work.
  EXPECT_GT(stats[1].gain_evaluations.mean, 0.0);
}

TEST(MonteCarlo, InvalidConfigRejected) {
  MonteCarloConfig mc;
  mc.topologies = 0;
  EXPECT_THROW((void)run_comparison(small_config(), {"gen"}, mc),
               std::invalid_argument);
  EXPECT_THROW((void)run_comparison(small_config(), {}, MonteCarloConfig{}),
               std::invalid_argument);
  // Unknown solver specs fail up front, before any topology is sampled.
  EXPECT_THROW((void)run_comparison(small_config(), {"wat"}, MonteCarloConfig{}),
               std::invalid_argument);
}

// ------------------------------------------------------------ Mobility studies

TEST(MobilityStudy, TraceShapeAndBounds) {
  Rng rng(21);
  MobilityStudyConfig config;
  config.num_slots = 60;        // 5 minutes
  config.eval_every_slots = 12; // one point per minute
  const auto trace = run_mobility_study(small_config(), config, rng);
  ASSERT_EQ(trace.size(), 6u);  // t=0 plus 5 samples
  EXPECT_DOUBLE_EQ(trace.front().minutes, 0.0);
  EXPECT_DOUBLE_EQ(trace.back().minutes, 5.0);
  for (const auto& pt : trace) {
    EXPECT_GE(pt.spec_hit_ratio, 0.0);
    EXPECT_LE(pt.spec_hit_ratio, 1.0 + 1e-12);
    EXPECT_GE(pt.gen_hit_ratio, 0.0);
    EXPECT_LE(pt.gen_hit_ratio, 1.0 + 1e-12);
  }
}

TEST(ReplacementStudy, TriggersOnDegradation) {
  Rng rng(22);
  MobilityStudyConfig config;
  config.num_slots = 240;  // 20 minutes
  config.eval_every_slots = 12;
  // An aggressive threshold forces at least the machinery to run; whether a
  // replacement triggers depends on the topology draw.
  ReplacementPolicy policy;
  policy.degradation_threshold = 0.01;
  const auto result = run_replacement_study(small_config(), config, policy, rng);
  EXPECT_EQ(result.trace.size(), 21u);
  for (std::size_t t = 1; t < result.trace.size(); ++t) {
    EXPECT_GE(result.trace[t].minutes, result.trace[t - 1].minutes);
  }
  // Replacements counted consistently with the trace flags.
  std::size_t flagged = 0;
  for (const auto& pt : result.trace) flagged += pt.replaced ? 1 : 0;
  EXPECT_EQ(flagged, result.replacements);
}

TEST(ReplacementStudy, InvalidThresholdRejected) {
  Rng rng(23);
  ReplacementPolicy policy;
  policy.degradation_threshold = 0.0;
  EXPECT_THROW(
      (void)run_replacement_study(small_config(), MobilityStudyConfig{}, policy, rng),
      std::invalid_argument);
}

TEST(MobilityStudy, InvalidConfigRejected) {
  Rng rng(24);
  MobilityStudyConfig config;
  config.eval_every_slots = 0;
  EXPECT_THROW((void)run_mobility_study(small_config(), config, rng),
               std::invalid_argument);
  // Both studies validate before building anything.
  config = MobilityStudyConfig{};
  config.slot_seconds = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((void)run_mobility_study(small_config(), config, rng),
               std::invalid_argument);
  EXPECT_THROW((void)run_replacement_study(small_config(), config, ReplacementPolicy{}, rng),
               std::invalid_argument);
}

/// validate()'s message for `config`, or "" when it passes.
std::string validation_error(const MobilityStudyConfig& config) {
  try {
    config.validate();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

// validate() is the only thing called in these tests, so no study ever runs
// with the bad values. Each rejection must name its knob.

TEST(MobilityStudyConfigValidate, RejectsNonFiniteAndNonPositiveSlotSeconds) {
  // A NaN or infinite slot would run to completion with every later sample
  // scoring 0.
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {inf, -inf, std::numeric_limits<double>::quiet_NaN(), 0.0, -1.0}) {
    MobilityStudyConfig config;
    config.slot_seconds = bad;
    EXPECT_NE(validation_error(config).find("slot_seconds"), std::string::npos) << bad;
  }
  EXPECT_EQ(validation_error(MobilityStudyConfig{}), "");
}

TEST(MobilityStudyConfigValidate, RejectsZeroEvalCadence) {
  MobilityStudyConfig config;
  config.eval_every_slots = 0;
  EXPECT_NE(validation_error(config).find("eval_every_slots"), std::string::npos);
}

TEST(MobilityStudyConfigValidate, RejectsEachNonFiniteOrNegativeFraction) {
  // A single negative fraction keeps the sum positive, so a total-only check
  // would let it through; a NaN fraction would run silently.
  const double inf = std::numeric_limits<double>::infinity();
  const std::pair<double MobilityStudyConfig::*, const char*> knobs[] = {
      {&MobilityStudyConfig::pedestrian_fraction, "pedestrian_fraction"},
      {&MobilityStudyConfig::bike_fraction, "bike_fraction"},
      {&MobilityStudyConfig::vehicle_fraction, "vehicle_fraction"}};
  for (const auto& [knob, name] : knobs) {
    for (const double bad : {-0.1, inf, -inf, std::numeric_limits<double>::quiet_NaN()}) {
      MobilityStudyConfig config;
      config.*knob = bad;
      EXPECT_NE(validation_error(config).find(name), std::string::npos)
          << name << " = " << bad;
    }
    // A zero share is a valid mix.
    MobilityStudyConfig config;
    config.*knob = 0.0;
    EXPECT_EQ(validation_error(config), "") << name;
  }
  MobilityStudyConfig none;
  none.pedestrian_fraction = none.bike_fraction = none.vehicle_fraction = 0.0;
  EXPECT_NE(validation_error(none).find("fractions"), std::string::npos);
}

// ----------------------------------------------------------------- Experiment

TEST(Experiment, DefaultBudgetRespondsToEnv) {
  // Without the env var the quick budget applies.
  unsetenv("TRIMCACHING_FULL");
  const auto quick = default_mc_config();
  EXPECT_LT(quick.topologies, 100u);
  setenv("TRIMCACHING_FULL", "1", 1);
  const auto full = default_mc_config();
  EXPECT_EQ(full.topologies, 100u);
  EXPECT_EQ(full.fading_realizations, 1000u);
  unsetenv("TRIMCACHING_FULL");
}

}  // namespace
}  // namespace trimcaching::sim
