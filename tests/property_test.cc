// Randomized invariant harness over every registered solver.
//
// For ~50 seeded scenarios — special- and general-case libraries, solved
// both untiled and through ScenarioTiler (with and without the repair pass)
// — every solver's outcome is cross-checked against the problem contracts
// it must uphold regardless of algorithm:
//
//   * capacity feasibility (Eq. 3 / Eq. 6b): the dedup-aware storage g_m of
//     every server's cached set fits its capacity;
//   * placement validity: only library models, within dimensions, and no
//     duplicate entries per server;
//   * objective honesty: the solver-reported hit ratio equals an
//     independent Eq. 2 recompute — both through core::expected_hit_ratio
//     and through the Evaluator's flat-plan arithmetic;
//   * tiling determinism: the tile fan-out at threads {2, 4} reproduces the
//     serial tiled solve bit for bit, storage-only and joint;
//   * joint honesty: core::evaluate_joint equals a brute-force canonical
//     walk over eligible() (hit mass and every server load, bit for bit).
//
// The exact solver is exponential, so it runs on dedicated tiny instances
// where its optimality over the greedy family is asserted as well.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/core/objective.h"
#include "src/core/solver_registry.h"
#include "src/core/storage.h"
#include "src/sim/evaluator.h"
#include "src/sim/scenario.h"
#include "src/sim/tiler.h"

namespace trimcaching {
namespace {

using support::Rng;

/// Every registered solver spec the harness drives, except "exact"
/// (exponential; covered by its own tiny-instance loop below). Includes a
/// composition so refiner plumbing is exercised too.
std::vector<std::string> harness_specs() {
  std::vector<std::string> specs;
  for (const auto& info : core::SolverRegistry::instance().list()) {
    if (info.name == "exact") continue;
    specs.push_back(info.name);
  }
  specs.push_back("gen+repair");
  return specs;
}

sim::ScenarioConfig small_config(bool general) {
  sim::ScenarioConfig config;
  config.num_servers = general ? 4 : 5;
  config.num_users = general ? 20 : 24;
  config.library_size = general ? 20 : 24;
  config.special.models_per_family = 10;
  config.requests.models_per_user = general ? 8 : 10;
  if (general) config.library_kind = sim::LibraryKind::kGeneralCase;
  return config;
}

void check_invariants(const sim::Scenario& scenario,
                      const core::PlacementProblem& problem,
                      const sim::Evaluator& evaluator,
                      const core::PlacementSolution& placement,
                      double reported_hit, const std::string& label) {
  ASSERT_EQ(placement.num_servers(), problem.num_servers()) << label;
  ASSERT_EQ(placement.num_models(), problem.num_models()) << label;

  for (ServerId m = 0; m < problem.num_servers(); ++m) {
    const std::vector<ModelId>& models = placement.models_on(m);
    // Only library models, no duplicate entries per server.
    const std::set<ModelId> unique(models.begin(), models.end());
    EXPECT_EQ(unique.size(), models.size()) << label << ": duplicates on server " << m;
    for (const ModelId i : models) {
      EXPECT_LT(i, problem.num_models()) << label << ": bad model on server " << m;
    }
    // Capacity feasibility under block dedup (Eq. 3 / Eq. 6b).
    EXPECT_LE(core::dedup_storage(scenario.library, models), problem.capacity(m))
        << label << ": server " << m << " over capacity";
  }

  // The solver-reported objective must match an independent Eq. 2 recompute
  // — via the coverage machinery and via the Evaluator's flat plan.
  const double recomputed = core::expected_hit_ratio(problem, placement);
  EXPECT_NEAR(reported_hit, recomputed, 1e-9) << label;
  EXPECT_NEAR(evaluator.expected_hit_ratio(placement), recomputed, 1e-9) << label;
}

TEST(SolverInvariants, EveryRegisteredSolverOnRandomScenariosUntiled) {
  const auto specs = harness_specs();
  // 10 seeds x {special, general} = 20 scenarios.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    for (const bool general : {false, true}) {
      Rng rng(1000 + seed);
      const sim::Scenario scenario = sim::build_scenario(small_config(general), rng);
      const core::PlacementProblem problem = scenario.problem();
      const sim::Evaluator evaluator(scenario.topology, scenario.library,
                                     scenario.requests);
      for (const std::string& spec : specs) {
        const std::string label = spec + (general ? " general" : " special") +
                                  " seed=" + std::to_string(seed);
        core::SolverContext context{Rng(seed)};
        const auto outcome =
            core::SolverRegistry::instance().make(spec)->run(problem, context);
        check_invariants(scenario, problem, evaluator, outcome.placement,
                         outcome.hit_ratio, label);
      }
    }
  }
}

TEST(SolverInvariants, EveryRegisteredSolverOnRandomScenariosTiled) {
  const auto specs = harness_specs();
  // 10 seeds x {special, general} = 20 scenarios, each solved through a 2x2
  // tiling; the repair pass is toggled on for odd seeds so both the raw
  // stitch and the repaired placement flow through the checks. Wide
  // deadlines keep relays eligible — the halo-overlap regime.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    for (const bool general : {false, true}) {
      sim::ScenarioConfig config = small_config(general);
      config.num_servers = 12;
      config.num_users = 60;
      config.area_side_m = 1400.0;
      config.requests.deadline_min_s = 2.0;
      config.requests.deadline_max_s = 6.0;
      Rng rng(2000 + seed);
      const sim::Scenario scenario = sim::build_scenario(config, rng);
      const core::PlacementProblem problem = scenario.problem();
      const sim::Evaluator evaluator(scenario.topology, scenario.library,
                                     scenario.requests);
      sim::TilerConfig tiler_config;
      tiler_config.tiles_x = 2;
      tiler_config.tiles_y = 2;
      tiler_config.repair = (seed % 2) == 1;
      const sim::ScenarioTiler tiler(scenario, tiler_config);
      for (const std::string& spec : specs) {
        const std::string label = "tiled " + spec +
                                  (general ? " general" : " special") +
                                  " seed=" + std::to_string(seed) +
                                  (tiler_config.repair ? " repair" : "");
        const auto tiled = tiler.solve(spec, seed);
        check_invariants(scenario, problem, evaluator, tiled.placement,
                         tiled.hit_ratio, label);
      }
    }
  }
}

/// Serial-vs-threaded tiling identity: every server's models in the same
/// placement order, the same Eq. 2 objective and the same work counters.
void expect_bit_identical(const sim::TiledSolveResult& serial,
                          const sim::TiledSolveResult& threaded,
                          const std::string& label) {
  ASSERT_EQ(serial.placement.total_placements(), threaded.placement.total_placements())
      << label;
  for (ServerId m = 0; m < serial.placement.num_servers(); ++m) {
    ASSERT_EQ(serial.placement.models_on(m), threaded.placement.models_on(m))
        << label << " server " << m;
  }
  EXPECT_EQ(serial.hit_ratio, threaded.hit_ratio) << label;
  EXPECT_EQ(serial.gain_evaluations, threaded.gain_evaluations) << label;
  EXPECT_EQ(serial.iterations, threaded.iterations) << label;
}

TEST(SolverInvariants, TilingBitIdenticalAcrossThreadsForEveryRegisteredSolver) {
  // The tiling determinism contract (sim/tiler.h): for every registered
  // solver, the tile fan-out at threads {2, 4} must reproduce the serial
  // tiled result bit for bit — same placements in the same placement order,
  // same Eq. 2 objective, same work counters. Seeds × {special, general}
  // scenarios, with the repair pass on for odd seeds.
  const auto specs = harness_specs();
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    for (const bool general : {false, true}) {
      sim::ScenarioConfig config = small_config(general);
      config.num_servers = 12;
      config.num_users = 60;
      config.area_side_m = 1400.0;
      config.requests.deadline_min_s = 2.0;
      config.requests.deadline_max_s = 6.0;
      Rng rng(4000 + seed);
      const sim::Scenario scenario = sim::build_scenario(config, rng);
      const core::PlacementProblem problem = scenario.problem();
      sim::TilerConfig tiler_config;
      tiler_config.tiles_x = 2;
      tiler_config.tiles_y = 2;
      tiler_config.repair = (seed % 2) == 1;
      const sim::ScenarioTiler tiler(scenario, tiler_config);
      for (const std::string& spec : specs) {
        const std::string label = "threads " + spec +
                                  (general ? " general" : " special") +
                                  " seed=" + std::to_string(seed);
        const auto serial = tiler.solve(spec, seed, 1);
        for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
          const auto threaded = tiler.solve(spec, seed, threads);
          expect_bit_identical(serial, threaded,
                               label + " threads=" + std::to_string(threads));
          // Eq. 2 honesty of the threaded result against an independent
          // recompute on the full problem.
          EXPECT_NEAR(core::expected_hit_ratio(problem, threaded.placement),
                      threaded.hit_ratio, 1e-9)
              << label;
        }
      }
    }
  }
}

// ----------------------------------------------------- joint caching + compute

/// A compute budget small enough to bind hard on the harness scenarios:
/// expected served load is ~0.1 units per user against per-server capacities
/// of this size, so the joint assignment must actually ration inferences.
constexpr double kBindingComputeCapacity = 0.08;

/// Joint-objective invariants every solver must uphold on a
/// compute-constrained problem: the canonical assignment never overcommits a
/// server (feasibility by construction), and the reported objective is the
/// normalized hit mass of that assignment.
void check_joint_invariants(const core::PlacementProblem& problem,
                            const core::PlacementSolution& placement,
                            double reported_hit, const std::string& label) {
  const core::JointEvaluation joint = core::evaluate_joint(problem, placement);
  ASSERT_EQ(joint.server_loads.size(), problem.num_servers()) << label;
  for (ServerId m = 0; m < problem.num_servers(); ++m) {
    EXPECT_LE(joint.server_loads[m], problem.compute_capacity(m))
        << label << ": server " << m << " over compute capacity";
  }
  const double mass = problem.total_mass();
  EXPECT_NEAR(reported_hit, mass > 0.0 ? joint.hit_mass / mass : 0.0, 1e-9)
      << label;
}

/// Brute-force canonical joint walk straight from the problem's primitives:
/// eligible(), request_probability() and compute_cost() — no hit lists, no
/// CoverageState. Servers ascending, placed models ascending, users
/// ascending; a still-unserved eligible pair is served iff its charge fits
/// the holder's remaining compute. `refused` counts pairs turned away for
/// compute alone (so a caller can tell the cap actually bound).
core::JointEvaluation brute_force_joint(const core::PlacementProblem& problem,
                                        const core::PlacementSolution& placement,
                                        std::size_t& refused) {
  const std::size_t num_users = problem.num_users();
  core::JointEvaluation eval;
  eval.server_loads.assign(problem.num_servers(), 0.0);
  std::vector<char> served(num_users * problem.num_models(), 0);
  for (ServerId m = 0; m < problem.num_servers(); ++m) {
    const double cap = problem.compute_capacity(m);
    for (ModelId i = 0; i < problem.num_models(); ++i) {
      if (!placement.placed(m, i)) continue;
      for (UserId k = 0; k < num_users; ++k) {
        const double p = problem.request_probability(k, i);
        if (p <= 0.0 || !problem.eligible(m, k, i)) continue;
        char& flag = served[static_cast<std::size_t>(i) * num_users + k];
        if (flag) continue;
        const double charge = p * problem.compute_cost(k, i);
        if (eval.server_loads[m] + charge <= cap) {
          flag = 1;
          eval.server_loads[m] += charge;
          eval.hit_mass += p;
        } else {
          ++refused;
        }
      }
    }
  }
  return eval;
}

TEST(SolverInvariants, JointEvaluationMatchesBruteForceWalk) {
  // evaluate_joint runs the solvers' own CoverageState commit walk, so this
  // oracle is what keeps the joint objective honest independently of them.
  // Placements: solver outputs on the binding-capacity problem plus the
  // all-models-everywhere placement (maximal holder overlap), each scored at
  // capacities from 0 (serves nothing) to loose. The generator draws no
  // randomness for the capacity knob, so only the capacities differ.
  std::size_t refused = 0;
  double served_mass = 0.0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    for (const bool general : {false, true}) {
      const auto scenario_at = [&](double capacity) {
        sim::ScenarioConfig config = small_config(general);
        config.compute_capacity = capacity;
        Rng rng(1000 + seed);
        return sim::build_scenario(config, rng);
      };
      const sim::Scenario binding = scenario_at(kBindingComputeCapacity);
      const core::PlacementProblem binding_problem = binding.problem();
      std::vector<std::pair<std::string, core::PlacementSolution>> placements;
      for (const std::string spec : {"gen", "spec", "independent", "gen+ls"}) {
        core::SolverContext context{Rng(seed)};
        const auto solver = core::SolverRegistry::instance().make(spec);
        placements.emplace_back(spec, solver->run(binding_problem, context).placement);
      }
      core::PlacementSolution everywhere(binding_problem.num_servers(),
                                         binding_problem.num_models());
      for (ServerId m = 0; m < everywhere.num_servers(); ++m) {
        for (ModelId i = 0; i < everywhere.num_models(); ++i) everywhere.place(m, i);
      }
      placements.emplace_back("everywhere", everywhere);

      for (const double capacity : {0.0, 0.03, kBindingComputeCapacity, 0.3}) {
        const sim::Scenario scenario = scenario_at(capacity);
        const core::PlacementProblem problem = scenario.problem();
        ASSERT_TRUE(problem.compute_constrained());
        for (const auto& [name, placement] : placements) {
          const std::string label = "oracle " + name +
                                    (general ? " general" : " special") +
                                    " cap=" + std::to_string(capacity) +
                                    " seed=" + std::to_string(seed);
          const core::JointEvaluation expected =
              brute_force_joint(problem, placement, refused);
          const core::JointEvaluation actual = core::evaluate_joint(problem, placement);
          EXPECT_EQ(actual.hit_mass, expected.hit_mass) << label;
          ASSERT_EQ(actual.server_loads.size(), expected.server_loads.size()) << label;
          for (ServerId m = 0; m < problem.num_servers(); ++m) {
            EXPECT_EQ(actual.server_loads[m], expected.server_loads[m])
                << label << " server " << m;
          }
          if (capacity == 0.0) {
            EXPECT_EQ(actual.hit_mass, 0.0) << label;
          }
          served_mass += expected.hit_mass;
        }
      }
    }
  }
  // Neither degenerate: the grid both serves and refuses requests.
  EXPECT_GT(served_mass, 0.0);
  EXPECT_GT(refused, 0u);
}

TEST(SolverInvariants, JointComputeUnlimitedDefaultReducesToTheStorageUnion) {
  // The compatibility half of the joint contract: a default scenario is not
  // compute-constrained, and evaluating the *joint* objective on it (every
  // capacity +inf) reproduces the storage-only Eq. 2 union — the compute
  // dimension is invisible until a finite capacity is configured.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    for (const bool general : {false, true}) {
      Rng rng(1000 + seed);
      const sim::Scenario scenario = sim::build_scenario(small_config(general), rng);
      const core::PlacementProblem problem = scenario.problem();
      ASSERT_FALSE(problem.compute_constrained());
      for (const std::string spec : {"gen", "spec", "independent"}) {
        const std::string label = "joint-default " + spec +
                                  (general ? " general" : " special") +
                                  " seed=" + std::to_string(seed);
        core::SolverContext context{Rng(seed)};
        const auto outcome =
            core::SolverRegistry::instance().make(spec)->run(problem, context);
        const auto joint = core::evaluate_joint(problem, outcome.placement);
        EXPECT_NEAR(joint.hit_mass / problem.total_mass(), outcome.hit_ratio, 1e-12)
            << label;
        for (const double load : joint.server_loads) EXPECT_GE(load, 0.0) << label;
      }
    }
  }
}

TEST(SolverInvariants, EveryRegisteredSolverFeasibleAndHonestUnderComputeConstraint) {
  // The constrained half: same scenario grid with a binding per-server
  // compute capacity. Every registered solver must stay feasible in *both*
  // dimensions, report the joint objective honestly, and never claim more
  // than the storage-only union of its own placement (served-with-compute is
  // a subset of covered). The constraint must actually bind somewhere in the
  // grid, or this test would be vacuous.
  const auto specs = harness_specs();
  bool constraint_bound = false;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    for (const bool general : {false, true}) {
      sim::ScenarioConfig config = small_config(general);
      config.compute_capacity = kBindingComputeCapacity;
      Rng rng(1000 + seed);
      const sim::Scenario scenario = sim::build_scenario(config, rng);
      const core::PlacementProblem problem = scenario.problem();
      ASSERT_TRUE(problem.compute_constrained());
      // Twin scenario from the identical RNG stream, compute left unlimited:
      // the generator draws no randomness for the capacity knob, so only the
      // capacities differ — the union recompute target.
      Rng twin_rng(1000 + seed);
      const sim::Scenario twin =
          sim::build_scenario(small_config(general), twin_rng);
      const core::PlacementProblem union_problem = twin.problem();
      const sim::Evaluator evaluator(scenario.topology, scenario.library,
                                     scenario.requests);
      for (const std::string& spec : specs) {
        const std::string label = "joint " + spec +
                                  (general ? " general" : " special") +
                                  " seed=" + std::to_string(seed);
        core::SolverContext context{Rng(seed)};
        const auto outcome =
            core::SolverRegistry::instance().make(spec)->run(problem, context);
        check_invariants(scenario, problem, evaluator, outcome.placement,
                         outcome.hit_ratio, label);
        check_joint_invariants(problem, outcome.placement, outcome.hit_ratio,
                               label);
        const double union_hit =
            core::expected_hit_ratio(union_problem, outcome.placement);
        EXPECT_LE(outcome.hit_ratio, union_hit + 1e-9) << label;
        if (outcome.hit_ratio < union_hit - 1e-9) constraint_bound = true;
      }
    }
  }
  EXPECT_TRUE(constraint_bound)
      << "compute capacity " << kBindingComputeCapacity
      << " never bound on any scenario — the joint leg tested nothing";
}

TEST(SolverInvariants, ZeroComputeCapacityServesNothing) {
  // Degenerate but legal: a finite capacity of 0 admits no inference at all,
  // so every solver's joint objective is exactly 0 and no server carries any
  // load — the sharpest edge of the feasibility contract.
  for (const bool general : {false, true}) {
    sim::ScenarioConfig config = small_config(general);
    config.compute_capacity = 0.0;
    Rng rng(1001);
    const sim::Scenario scenario = sim::build_scenario(config, rng);
    const core::PlacementProblem problem = scenario.problem();
    for (const std::string spec : {"gen", "spec", "independent", "gen+repair"}) {
      const std::string label = "joint-zero " + spec + (general ? " general" : "");
      core::SolverContext context{Rng(1)};
      const auto outcome =
          core::SolverRegistry::instance().make(spec)->run(problem, context);
      EXPECT_EQ(outcome.hit_ratio, 0.0) << label;
      const auto joint = core::evaluate_joint(problem, outcome.placement);
      EXPECT_EQ(joint.hit_mass, 0.0) << label;
      for (const double load : joint.server_loads) EXPECT_EQ(load, 0.0) << label;
    }
  }
}

TEST(SolverInvariants, JointTilingBitIdenticalAcrossThreadsUnderComputeConstraint) {
  // The tiling determinism contract extends to the joint objective: with a
  // binding compute capacity, the tile fan-out at threads {2, 4} must
  // reproduce the serial tiled placements and joint hit ratio bit for bit.
  const auto specs = harness_specs();
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    for (const bool general : {false, true}) {
      sim::ScenarioConfig config = small_config(general);
      config.num_servers = 12;
      config.num_users = 60;
      config.area_side_m = 1400.0;
      config.requests.deadline_min_s = 2.0;
      config.requests.deadline_max_s = 6.0;
      config.compute_capacity = kBindingComputeCapacity;
      Rng rng(4000 + seed);
      const sim::Scenario scenario = sim::build_scenario(config, rng);
      const core::PlacementProblem problem = scenario.problem();
      ASSERT_TRUE(problem.compute_constrained());
      sim::TilerConfig tiler_config;
      tiler_config.tiles_x = 2;
      tiler_config.tiles_y = 2;
      tiler_config.repair = (seed % 2) == 1;
      const sim::ScenarioTiler tiler(scenario, tiler_config);
      for (const std::string& spec : specs) {
        const std::string label = "joint threads " + spec +
                                  (general ? " general" : " special") +
                                  " seed=" + std::to_string(seed);
        const auto serial = tiler.solve(spec, seed, 1);
        for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
          const auto threaded = tiler.solve(spec, seed, threads);
          const std::string at = label + " threads=" + std::to_string(threads);
          expect_bit_identical(serial, threaded, at);
          EXPECT_NEAR(core::expected_hit_ratio(problem, threaded.placement),
                      threaded.hit_ratio, 1e-9)
              << at;
          check_joint_invariants(problem, threaded.placement, threaded.hit_ratio, at);
        }
      }
    }
  }
}

TEST(SolverInvariants, ExactSolverOnTinyScenariosIsFeasibleAndOptimal) {
  // 10 dedicated tiny scenarios: few enough decision variables for B&B, and
  // the proven optimum must dominate every greedy-family result.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    sim::ScenarioConfig config;
    config.num_servers = 2;
    config.num_users = 6;
    config.library_size = 6;
    config.special.models_per_family = 4;
    config.requests.models_per_user = 3;
    Rng rng(3000 + seed);
    const sim::Scenario scenario = sim::build_scenario(config, rng);
    const core::PlacementProblem problem = scenario.problem();
    const sim::Evaluator evaluator(scenario.topology, scenario.library,
                                   scenario.requests);
    const std::string label = "exact seed=" + std::to_string(seed);

    core::SolverContext exact_context{Rng(seed)};
    const auto exact = core::SolverRegistry::instance().make("exact")->run(
        problem, exact_context);
    check_invariants(scenario, problem, evaluator, exact.placement,
                     exact.hit_ratio, label);
    ASSERT_TRUE(exact.optimality_bound.has_value()) << label;

    for (const std::string spec : {"gen", "spec", "independent"}) {
      core::SolverContext context{Rng(seed)};
      const auto outcome =
          core::SolverRegistry::instance().make(spec)->run(problem, context);
      EXPECT_GE(exact.hit_ratio, outcome.hit_ratio - 1e-9)
          << label << " vs " << spec;
    }
  }
}

}  // namespace
}  // namespace trimcaching
