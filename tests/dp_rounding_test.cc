#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>

#include "src/core/dp_rounding.h"
#include "src/core/storage.h"
#include "src/model/special_case_generator.h"
#include "tests/test_util.h"

namespace trimcaching::core {
namespace {

using support::megabytes;
using support::Rng;

/// Exact weight mode for whole-MB instances: quantum divides all sizes.
SpecSolverConfig exact_weight_config(double capacity_mb) {
  SpecSolverConfig config;
  config.mode = DpMode::kWeightQuantized;
  config.weight_states = static_cast<std::size_t>(capacity_mb);
  return config;
}

std::vector<double> random_utilities(const model::ModelLibrary& lib, Rng& rng,
                                     double zero_fraction = 0.2) {
  std::vector<double> u(lib.num_models(), 0.0);
  for (auto& x : u) {
    if (!rng.bernoulli(zero_fraction)) x = rng.uniform(0.01, 1.0);
  }
  return u;
}

void expect_feasible(const model::ModelLibrary& lib,
                     const ServerSubproblemResult& result, support::Bytes capacity) {
  EXPECT_LE(lib.dedup_size(result.models), capacity);
}

/// A whole-MB library whose shared parts are not nested: models 0 and 1
/// hold the parts {s0} and {s1}, model 2 holds both and joins them into one
/// sharing group, so neither part contains the other and the solver must
/// take the closure fallback.
model::ModelLibrary non_nested_library(Rng& rng, std::size_t num_models) {
  model::ModelLibrary lib;
  const auto block = [&](std::string name) {
    return lib.add_block(megabytes(static_cast<double>(rng.uniform_int(1, 8))),
                         std::move(name));
  };
  const BlockId s0 = block("s0");
  const BlockId s1 = block("s1");
  const BlockId s2 = block("s2");
  const std::vector<std::vector<BlockId>> parts = {{s0}, {s1}, {s0, s1},
                                                   {s1, s2}, {s2}, {}};
  for (std::size_t i = 0; i < num_models; ++i) {
    std::vector<BlockId> blocks = parts[i < 3 ? i : rng.index(parts.size())];
    blocks.push_back(block(testutil::indexed_name("x", i)));
    lib.add_model(testutil::indexed_name("m", i), "f", std::move(blocks));
  }
  lib.finalize();
  return lib;
}

/// Loads for the joint tests: whole multiples of the compute quantum
/// (compute_budget == compute_states, so the quantum is exactly 1), which
/// makes the joint DP exact on both axes.
std::vector<double> whole_loads(const model::ModelLibrary& lib, Rng& rng,
                                std::int64_t max_load) {
  std::vector<double> loads(lib.num_models());
  for (auto& load : loads) load = static_cast<double>(rng.uniform_int(0, max_load));
  return loads;
}

struct JointOptimum {
  double value = 0.0;
  std::vector<ModelId> models;  ///< ascending
};

/// Brute-force optimum of the joint sub-problem: max Σ u over model subsets
/// whose dedup size fits `capacity` and whose summed loads fit `budget`.
/// Exponential; keep |I| small.
JointOptimum brute_force_joint(const model::ModelLibrary& lib,
                               const std::vector<double>& utilities,
                               support::Bytes capacity,
                               const std::vector<double>& loads, double budget) {
  const std::size_t n = lib.num_models();
  JointOptimum best;
  for (std::size_t mask = 0; mask < (std::size_t{1} << n); ++mask) {
    JointOptimum pick;
    double load = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (mask & (std::size_t{1} << i)) {
        pick.models.push_back(static_cast<ModelId>(i));
        pick.value += utilities[i];
        load += loads[i];
      }
    }
    if (pick.value <= best.value || load > budget) continue;
    if (lib.dedup_size(pick.models) <= capacity) best = std::move(pick);
  }
  return best;
}

/// Joint mode on a whole-MB instance: states = capacity in MB and
/// compute_states = budget make both quantizations exact.
ServerSubproblemResult solve_joint(const model::ModelLibrary& lib,
                                   const std::vector<double>& utilities,
                                   double capacity_mb, const std::vector<double>& loads,
                                   std::size_t budget) {
  SpecSolverConfig config = exact_weight_config(capacity_mb);
  config.compute_states = budget;
  return solve_server_subproblem(lib, utilities, megabytes(capacity_mb), config, &loads,
                                 static_cast<double>(budget));
}

// ------------------------------------------------ vs brute force (weight mode)

class DpVsBruteForce : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DpVsBruteForce, WeightModeMatchesOptimum) {
  Rng rng(GetParam());
  const auto lib = testutil::random_library(rng, 10, 12);
  const auto utilities = random_utilities(lib, rng);
  const double capacity_mb = 30.0;
  const auto result = solve_server_subproblem(lib, utilities, megabytes(capacity_mb),
                                              exact_weight_config(capacity_mb));
  const double optimum =
      testutil::brute_force_subproblem(lib, utilities, megabytes(capacity_mb));
  EXPECT_NEAR(result.value, optimum, 1e-9);
  expect_feasible(lib, result, megabytes(capacity_mb));
  // Reported value must equal the sum of chosen utilities.
  double sum = 0;
  for (const ModelId i : result.models) sum += utilities[i];
  EXPECT_NEAR(sum, result.value, 1e-12);
}

TEST_P(DpVsBruteForce, ProfitModeWithinEpsilon) {
  Rng rng(GetParam() + 1000);
  const auto lib = testutil::random_library(rng, 10, 12);
  const auto utilities = random_utilities(lib, rng);
  const support::Bytes capacity = megabytes(30);
  SpecSolverConfig config;
  config.mode = DpMode::kProfitRounding;
  config.epsilon = 0.1;
  const auto result = solve_server_subproblem(lib, utilities, capacity, config);
  const double optimum = testutil::brute_force_subproblem(lib, utilities, capacity);
  EXPECT_GE(result.value, (1.0 - config.epsilon) * optimum - 1e-9);
  EXPECT_LE(result.value, optimum + 1e-9);
  expect_feasible(lib, result, capacity);
}

TEST_P(DpVsBruteForce, TinyEpsilonIsNearExact) {
  Rng rng(GetParam() + 2000);
  const auto lib = testutil::random_library(rng, 9, 10);
  const auto utilities = random_utilities(lib, rng);
  const support::Bytes capacity = megabytes(25);
  SpecSolverConfig config;
  config.mode = DpMode::kProfitRounding;
  config.epsilon = 0.0;  // maps to 1e-5 rounding
  const auto result = solve_server_subproblem(lib, utilities, capacity, config);
  const double optimum = testutil::brute_force_subproblem(lib, utilities, capacity);
  EXPECT_NEAR(result.value, optimum, 1e-4 * std::max(1.0, optimum));
}

TEST_P(DpVsBruteForce, JointModeMatchesOptimum) {
  Rng rng(GetParam() + 3000);
  const auto lib = testutil::random_library(rng, 10, 12);
  const auto utilities = random_utilities(lib, rng);
  const auto loads = whole_loads(lib, rng, 4);
  const double capacity_mb = 30.0;
  const std::size_t budget = 8;
  const auto result = solve_joint(lib, utilities, capacity_mb, loads, budget);
  const auto optimum = brute_force_joint(lib, utilities, megabytes(capacity_mb), loads,
                                         static_cast<double>(budget));
  EXPECT_NEAR(result.value, optimum.value, 1e-9);
  EXPECT_EQ(result.models, optimum.models);
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, DpVsBruteForce,
                         ::testing::Range<std::uint64_t>(0, 20));

// --------------------------------------------------- chain path (special case)

class DpChainPath : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DpChainPath, UsesChainTraversalOnFreezeLibraries) {
  Rng rng(GetParam());
  model::SpecialCaseConfig config;
  config.models_per_family = 5;
  const auto lib = model::build_special_case_library(config, rng);
  std::vector<double> utilities(lib.num_models());
  for (auto& u : utilities) u = rng.uniform(0.0, 1.0);
  const auto result = solve_server_subproblem(lib, utilities, megabytes(200),
                                              SpecSolverConfig{});
  EXPECT_TRUE(result.used_chain_path);
  EXPECT_GT(result.combinations_visited, 0u);
  expect_feasible(lib, result, megabytes(200));
}

TEST_P(DpChainPath, ChainAndFallbackAgree) {
  // Both traversals meet the same brute force: the freeze library walks its
  // chains, the non-nested one takes the closure fallback, in every DP mode.
  Rng rng(GetParam() + 500);
  model::SpecialCaseConfig config;
  config.models_per_family = 4;
  config.archs = {model::ResNetArch::kResNet18};
  const auto lib = model::build_special_case_library(config, rng);
  std::vector<double> utilities(lib.num_models());
  for (auto& u : utilities) u = rng.uniform(0.1, 1.0);
  const double chain_mb = 120.0;
  const auto chain = solve_server_subproblem(lib, utilities, megabytes(chain_mb),
                                             exact_weight_config(chain_mb));
  ASSERT_TRUE(chain.used_chain_path);
  EXPECT_NEAR(chain.value,
              testutil::brute_force_subproblem(lib, utilities, megabytes(chain_mb)),
              1e-9);

  const auto fallback_lib = non_nested_library(rng, 10);
  const auto fallback_utilities = random_utilities(fallback_lib, rng);
  const double capacity_mb = 20.0;
  const support::Bytes capacity = megabytes(capacity_mb);
  const double optimum =
      testutil::brute_force_subproblem(fallback_lib, fallback_utilities, capacity);

  const auto weight = solve_server_subproblem(fallback_lib, fallback_utilities,
                                              capacity, exact_weight_config(capacity_mb));
  ASSERT_FALSE(weight.used_chain_path);
  EXPECT_NEAR(weight.value, optimum, 1e-9);

  SpecSolverConfig profit_config;
  profit_config.epsilon = 0.0;  // maps to 1e-5 rounding (Proposition 4)
  const auto profit = solve_server_subproblem(fallback_lib, fallback_utilities,
                                              capacity, profit_config);
  ASSERT_FALSE(profit.used_chain_path);
  EXPECT_GE(profit.value, (1.0 - 1e-5) * optimum - 1e-12);
  EXPECT_LE(profit.value, optimum + 1e-9);
  expect_feasible(fallback_lib, profit, capacity);

  const auto loads = whole_loads(fallback_lib, rng, 3);
  const std::size_t budget = 6;
  const auto joint = solve_joint(fallback_lib, fallback_utilities, capacity_mb, loads,
                                 budget);
  ASSERT_FALSE(joint.used_chain_path);
  const auto joint_optimum = brute_force_joint(fallback_lib, fallback_utilities,
                                               capacity, loads,
                                               static_cast<double>(budget));
  EXPECT_NEAR(joint.value, joint_optimum.value, 1e-9);
  EXPECT_EQ(joint.models, joint_optimum.models);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DpChainPath, ::testing::Range<std::uint64_t>(0, 8));

// ------------------------------------------------------------------ edge cases

TEST(DpRounding, EmptyUtilitiesReturnEmpty) {
  Rng rng(1);
  const auto lib = testutil::random_library(rng, 5, 6);
  std::vector<double> utilities(lib.num_models(), 0.0);
  const auto result = solve_server_subproblem(lib, utilities, megabytes(100));
  EXPECT_TRUE(result.models.empty());
  EXPECT_DOUBLE_EQ(result.value, 0.0);
}

TEST(DpRounding, ZeroCapacitySelectsNothing) {
  Rng rng(2);
  const auto lib = testutil::random_library(rng, 5, 6);
  std::vector<double> utilities(lib.num_models(), 1.0);
  const auto result = solve_server_subproblem(lib, utilities, 0);
  EXPECT_TRUE(result.models.empty());
}

TEST(DpRounding, HugeCapacitySelectsEverythingUseful) {
  Rng rng(3);
  const auto lib = testutil::random_library(rng, 6, 8);
  std::vector<double> utilities(lib.num_models(), 0.5);
  const auto result =
      solve_server_subproblem(lib, utilities, support::gigabytes(10));
  EXPECT_EQ(result.models.size(), lib.num_models());
  EXPECT_NEAR(result.value, 0.5 * lib.num_models(), 1e-9);
}

TEST(DpRounding, InvalidInputsThrow) {
  Rng rng(4);
  const auto lib = testutil::random_library(rng, 4, 5);
  std::vector<double> wrong_size(3, 1.0);
  EXPECT_THROW((void)solve_server_subproblem(lib, wrong_size, megabytes(10)),
               std::invalid_argument);
  std::vector<double> negative(4, -1.0);
  EXPECT_THROW((void)solve_server_subproblem(lib, negative, megabytes(10)),
               std::invalid_argument);
  std::vector<double> ok(4, 1.0);
  SpecSolverConfig bad;
  bad.epsilon = 2.0;
  EXPECT_THROW((void)solve_server_subproblem(lib, ok, megabytes(10), bad),
               std::invalid_argument);
  bad = SpecSolverConfig{};
  bad.mode = DpMode::kWeightQuantized;
  bad.weight_states = 0;
  EXPECT_THROW((void)solve_server_subproblem(lib, ok, megabytes(10), bad),
               std::invalid_argument);

  // Each bad Spec knob ends in a diagnostic that names it.
  const auto error_with = [&](const SpecSolverConfig& config) -> std::string {
    try {
      (void)solve_server_subproblem(lib, ok, megabytes(10), config);
    } catch (const std::exception& e) {
      return e.what();
    }
    return "";
  };
  // states = 0 is rejected in every mode: the storage quantum divides by it.
  bad = SpecSolverConfig{};
  bad.weight_states = 0;
  EXPECT_NE(error_with(bad).find("states must be > 0"), std::string::npos);
  EXPECT_THROW((void)solve_server_subproblem(lib, ok, megabytes(10), bad),
               std::invalid_argument);
  // eps must be finite and in [0, 1].
  for (const double eps : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(), -0.5}) {
    bad = SpecSolverConfig{};
    bad.epsilon = eps;
    EXPECT_NE(error_with(bad).find("eps must be"), std::string::npos) << eps;
    EXPECT_THROW((void)solve_server_subproblem(lib, ok, megabytes(10), bad),
                 std::invalid_argument);
  }
  // A tiny eps would overflow the rounded profits' integer cast: rejected
  // before it.
  bad = SpecSolverConfig{};
  bad.epsilon = 1e-300;
  EXPECT_NE(error_with(bad).find("increase eps"), std::string::npos);
  EXPECT_THROW((void)solve_server_subproblem(lib, ok, megabytes(10), bad),
               std::runtime_error);
  // Joint mode never rounds profits, so the same eps is harmless there.
  const std::vector<double> loads(4, 0.1);
  EXPECT_NO_THROW(
      (void)solve_server_subproblem(lib, ok, megabytes(10), bad, &loads, 1.0));
}

TEST(DpRounding, CombinationCapThrows) {
  // Many independent sharing pairs -> closure 2^16; cap of 100 must throw.
  model::ModelLibrary lib;
  for (int g = 0; g < 16; ++g) {
    const BlockId shared = lib.add_block(megabytes(1), "s");
    const BlockId a = lib.add_block(megabytes(1), "a");
    const BlockId b = lib.add_block(megabytes(1), "b");
    lib.add_model(testutil::indexed_name("a", g), "f", {shared, a});
    lib.add_model(testutil::indexed_name("b", g), "f", {shared, b});
  }
  lib.finalize();
  std::vector<double> utilities(lib.num_models(), 1.0);
  SpecSolverConfig config;
  config.max_combinations = 100;
  EXPECT_THROW((void)solve_server_subproblem(lib, utilities, megabytes(10), config),
               std::runtime_error);
}

TEST(DpRounding, EpsilonSweepImprovesValue) {
  Rng rng(6);
  const auto lib = testutil::random_library(rng, 12, 14);
  const auto utilities = random_utilities(lib, rng, 0.0);
  const support::Bytes capacity = megabytes(25);
  double prev = -1.0;
  for (const double eps : {0.9, 0.5, 0.2, 0.05}) {
    SpecSolverConfig config;
    config.epsilon = eps;
    const double value =
        solve_server_subproblem(lib, utilities, capacity, config).value;
    // Finer rounding can only lose less (within its own guarantee).
    EXPECT_GE(value, (1.0 - eps) *
                         testutil::brute_force_subproblem(lib, utilities, capacity) -
                         1e-9);
    prev = std::max(prev, value);
  }
  EXPECT_GT(prev, 0.0);
}

TEST(DpRounding, SharedBlocksStoredOnce) {
  // Two models share a 20 MB block; each has a 5 MB specific part. Capacity
  // 30 MB only fits both models *because* the shared block is stored once.
  model::ModelLibrary lib;
  const BlockId shared = lib.add_block(megabytes(20), "shared");
  const BlockId a = lib.add_block(megabytes(5), "a");
  const BlockId b = lib.add_block(megabytes(5), "b");
  lib.add_model("m0", "f", {shared, a});
  lib.add_model("m1", "f", {shared, b});
  lib.finalize();
  std::vector<double> utilities = {1.0, 1.0};
  const auto result = solve_server_subproblem(lib, utilities, megabytes(30),
                                              exact_weight_config(30));
  EXPECT_EQ(result.models.size(), 2u);
  EXPECT_NEAR(result.value, 2.0, 1e-12);
}

TEST(DpRounding, PrefersSharingWhenCapacityTight) {
  // Independent model with utility 1.2 vs two sharing models worth 1.0 each:
  // with 30 MB, the sharing pair (total 30 MB dedup, value 2.0) must win over
  // the 28 MB independent model (value 1.2).
  model::ModelLibrary lib;
  const BlockId shared = lib.add_block(megabytes(20), "shared");
  const BlockId a = lib.add_block(megabytes(5), "a");
  const BlockId b = lib.add_block(megabytes(5), "b");
  const BlockId solo = lib.add_block(megabytes(28), "solo");
  lib.add_model("m0", "f", {shared, a});
  lib.add_model("m1", "f", {shared, b});
  lib.add_model("m2", "g", {solo});
  lib.finalize();
  std::vector<double> utilities = {1.0, 1.0, 1.2};
  const auto result = solve_server_subproblem(lib, utilities, megabytes(30),
                                              exact_weight_config(30));
  EXPECT_EQ(result.models, (std::vector<ModelId>{0, 1}));
}


// ------------------------------------------------------------- golden digests
//
// Pins every result field of the three DP kinds on both traversals, seed by
// seed, to one committed 64-bit digest per mode. A change to the table fill
// or the traceback that is meant to be bit-identical must leave these
// constants alone; any drift in a value's bits, a chosen model, the leaf
// count or the traversal taken changes them.

/// 64-bit FNV-1a.
class Fnv1a {
 public:
  void add(const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t b = 0; b < size; ++b) {
      hash_ = (hash_ ^ bytes[b]) * 0x100000001b3ULL;
    }
  }
  void add(const std::string& text) { add(text.data(), text.size()); }
  void add(std::uint64_t word) { add(&word, sizeof word); }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// One sub-problem instance; the library kind rotates with the seed over the
/// special-case chain library, a random library (1-4 blocks per model, the
/// closure fallback or small chains) and the non-nested closure library.
struct DigestInstance {
  model::ModelLibrary library;
  std::vector<double> utilities;
  std::vector<double> loads;  ///< joint mode's compute loads
  support::Bytes capacity = 0;
};

DigestInstance digest_instance(std::uint64_t seed, std::size_t num_models) {
  Rng rng(seed);
  DigestInstance out;
  switch (seed % 3) {
    case 0: {
      model::SpecialCaseConfig config;
      config.models_per_family = num_models / 3;
      out.library = model::build_special_case_library(config, rng);
      out.capacity = megabytes(200);
      break;
    }
    case 1:
      out.library = testutil::random_library(rng, num_models, num_models + 3);
      out.capacity = megabytes(30);
      break;
    default:
      out.library = non_nested_library(rng, num_models);
      out.capacity = megabytes(20);
      break;
  }
  // Utilities within 10x of each other keep the exact-profit table small.
  out.utilities.assign(out.library.num_models(), 0.0);
  for (auto& u : out.utilities) {
    if (!rng.bernoulli(0.2)) u = rng.uniform(0.1, 1.0);
  }
  out.loads.resize(out.library.num_models());
  for (auto& load : out.loads) load = rng.uniform(0.0, 1.0);
  return out;
}

/// Solves `instance`'s utilities over `library` and `capacity` (its own, or
/// a rescaled copy); joint mode, with compute budget 2, when compute_states
/// is non-zero.
ServerSubproblemResult solve_instance(const DigestInstance& instance,
                                      const model::ModelLibrary& library,
                                      support::Bytes capacity,
                                      const SpecSolverConfig& config) {
  const bool joint = config.compute_states != 0;
  return solve_server_subproblem(library, instance.utilities, capacity, config,
                                 joint ? &instance.loads : nullptr,
                                 joint ? 2.0 : std::numeric_limits<double>::infinity());
}

/// Digest of solve_instance over `seeds` seeds from `first_seed`: per seed,
/// the value's bits as %a, the models, the leaf count and the traversal
/// taken, or the exception text.
std::uint64_t subproblem_digest(const SpecSolverConfig& config, std::uint64_t first_seed,
                                std::size_t seeds, std::size_t num_models) {
  Fnv1a hash;
  for (std::uint64_t seed = first_seed; seed < first_seed + seeds; ++seed) {
    const DigestInstance instance = digest_instance(seed, num_models);
    try {
      const auto result =
          solve_instance(instance, instance.library, instance.capacity, config);
      char value[64];
      std::snprintf(value, sizeof value, "%a", result.value);
      hash.add(std::string(value));
      hash.add(std::uint64_t{result.models.size()});
      for (const ModelId i : result.models) hash.add(std::uint64_t{i});
      hash.add(std::uint64_t{result.combinations_visited});
      hash.add(std::uint64_t{result.used_chain_path ? 1U : 0U});
    } catch (const std::exception& e) {
      hash.add(std::string("throw: ") + e.what());
    }
  }
  return hash.value();
}

SpecSolverConfig profit_config(double epsilon) {
  SpecSolverConfig config;
  config.epsilon = epsilon;
  config.compute_states = 0;
  return config;
}

SpecSolverConfig weight_config(std::size_t states) {
  SpecSolverConfig config;
  config.mode = DpMode::kWeightQuantized;
  config.weight_states = states;
  config.compute_states = 0;
  return config;
}

SpecSolverConfig joint_config(std::size_t states, std::size_t compute_states) {
  SpecSolverConfig config;
  config.weight_states = states;
  config.compute_states = compute_states;
  return config;
}

// The constants were recorded with the sharded table fill the solver used to
// have, at 1 and 4 threads alike (the profit eps=0 and weight 2^17 tables
// crossed its size threshold), and hold for the serial fill unchanged.
TEST(DpGoldenDigest, ProfitMode) {
  EXPECT_EQ(subproblem_digest(profit_config(0.1), 100, 9, 12), 0x14b4f41e9a336cbcULL);
  EXPECT_EQ(subproblem_digest(profit_config(0.0), 200, 3, 9), 0xdd73b3f7924be120ULL);
}

TEST(DpGoldenDigest, WeightMode) {
  EXPECT_EQ(subproblem_digest(weight_config(4096), 300, 9, 12), 0xf4b89e8fbc71fecdULL);
  EXPECT_EQ(subproblem_digest(weight_config(std::size_t{1} << 17), 400, 3, 9),
            0x99831217f652314cULL);
}

TEST(DpGoldenDigest, JointMode) {
  EXPECT_EQ(subproblem_digest(joint_config(512, 32), 500, 9, 12), 0x3d49677c3d5e6f80ULL);
  EXPECT_EQ(subproblem_digest(joint_config(4096, 64), 600, 3, 9), 0x8eef805fbc962ecfULL);
}

// ------------------------------------------------------------- unit scaling

/// `library` with every block 2^shift times larger.
model::ModelLibrary scaled_library(const model::ModelLibrary& library, unsigned shift) {
  model::ModelLibrary out;
  for (BlockId j = 0; j < library.num_blocks(); ++j) {
    out.add_block(library.block(j).size_bytes << shift, library.block(j).name);
  }
  for (ModelId i = 0; i < library.num_models(); ++i) {
    const model::ModelSpec& spec = library.model(i);
    out.add_model(spec.name, spec.family, spec.blocks);
  }
  out.finalize();
  return out;
}

void expect_same_result(const ServerSubproblemResult& lhs,
                        const ServerSubproblemResult& rhs) {
  EXPECT_EQ(lhs.models, rhs.models);
  EXPECT_EQ(lhs.value, rhs.value);  // exact: same bits
  EXPECT_EQ(lhs.combinations_visited, rhs.combinations_visited);
  EXPECT_EQ(lhs.used_chain_path, rhs.used_chain_path);
}

class DpUnitScaling : public ::testing::TestWithParam<std::uint64_t> {};

// Bytes carry no unit the solver may depend on: scaling every block and the
// capacity by 2^k leaves every result field unchanged. The weight and joint
// configs give states dividing the capacity, so the storage quantum scales
// exactly too (ceil(capacity / states) is not homogeneous in general).
TEST_P(DpUnitScaling, ScalingBlocksAndCapacityChangesNothing) {
  for (std::uint64_t kind = 0; kind < 3; ++kind) {
    const std::uint64_t seed = 3 * GetParam() + kind;
    const DigestInstance instance = digest_instance(seed, 9);
    const std::size_t states = static_cast<std::size_t>(instance.capacity / 10'000);
    const std::vector<std::pair<std::string, SpecSolverConfig>> configs = {
        {"profit eps=0.1", profit_config(0.1)},
        {"profit eps=0", profit_config(0.0)},
        {"weight", weight_config(states)},
        {"joint", joint_config(states, 16)},
    };
    for (const auto& [name, config] : configs) {
      const auto base =
          solve_instance(instance, instance.library, instance.capacity, config);
      for (const unsigned shift : {1U, 10U}) {
        SCOPED_TRACE(::testing::Message()
                     << name << " seed=" << seed << " k=" << shift);
        expect_same_result(base, solve_instance(instance,
                                                scaled_library(instance.library, shift),
                                                instance.capacity << shift, config));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DpUnitScaling, ::testing::Range<std::uint64_t>(0, 3));

}  // namespace
}  // namespace trimcaching::core
