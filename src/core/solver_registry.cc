#include "src/core/solver_registry.h"

#include <stdexcept>
#include <utility>

#include <numeric>

#include "src/core/baselines.h"
#include "src/core/exact_solver.h"
#include "src/core/independent_caching.h"
#include "src/core/local_search.h"
#include "src/core/objective.h"
#include "src/core/storage.h"
#include "src/core/submodular.h"
#include "src/core/trimcaching_gen.h"
#include "src/core/trimcaching_spec.h"

namespace trimcaching::core {

namespace {

// ------------------------------------------------------------------ adapters

class SpecSolver final : public Solver {
 public:
  explicit SpecSolver(SpecConfig config) : config_(config) {}

  std::string name() const override { return "spec"; }
  std::string title() const override { return "TrimCaching Spec"; }

  SolverOutcome solve(const PlacementProblem& problem,
                      SolverContext& /*context*/) const override {
    SpecResult result = trimcaching_spec(problem, config_);
    SolverOutcome outcome(std::move(result.placement));
    outcome.hit_ratio = result.hit_ratio;
    outcome.iterations = result.combinations_visited;
    return outcome;
  }

 private:
  SpecConfig config_;
};

class GenSolver final : public Solver {
 public:
  GenSolver(std::string name, GenConfig config)
      : name_(std::move(name)), config_(config) {}

  std::string name() const override { return name_; }
  std::string title() const override {
    return config_.lazy ? "TrimCaching Gen" : "TrimCaching Gen (naive)";
  }

  SolverOutcome solve(const PlacementProblem& problem,
                      SolverContext& /*context*/) const override {
    GenResult result = trimcaching_gen(problem, config_);
    SolverOutcome outcome(std::move(result.placement));
    outcome.hit_ratio = result.hit_ratio;
    outcome.gain_evaluations = result.gain_evaluations;
    return outcome;
  }

 private:
  std::string name_;
  GenConfig config_;
};

class IndependentSolver final : public Solver {
 public:
  std::string name() const override { return "independent"; }
  std::string title() const override { return "Independent Caching"; }

  SolverOutcome solve(const PlacementProblem& problem,
                      SolverContext& /*context*/) const override {
    IndependentResult result = independent_caching(problem);
    SolverOutcome outcome(std::move(result.placement));
    outcome.hit_ratio = result.hit_ratio;
    return outcome;
  }
};

class ExactSolverAdapter final : public Solver {
 public:
  explicit ExactSolverAdapter(ExactConfig config) : config_(config) {}

  std::string name() const override { return "exact"; }
  std::string title() const override {
    return config_.branch_and_bound ? "Optimal (B&B)" : "Optimal (exhaustive)";
  }

  SolverOutcome solve(const PlacementProblem& problem,
                      SolverContext& /*context*/) const override {
    ExactResult result = exact_optimal(problem, config_);
    SolverOutcome outcome(std::move(result.placement));
    outcome.hit_ratio = result.hit_ratio;
    outcome.iterations = result.nodes_visited;
    outcome.optimality_bound = outcome.hit_ratio;  // it *is* the optimum
    return outcome;
  }

 private:
  ExactConfig config_;
};

class TopPopularitySolver final : public Solver {
 public:
  std::string name() const override { return "top_pop"; }
  std::string title() const override { return "Top-Popularity"; }

  SolverOutcome solve(const PlacementProblem& problem,
                      SolverContext& /*context*/) const override {
    BaselineResult result = top_popularity_caching(problem);
    SolverOutcome outcome(std::move(result.placement));
    outcome.hit_ratio = result.hit_ratio;
    return outcome;
  }
};

class RandomSolver final : public Solver {
 public:
  std::string name() const override { return "random"; }
  std::string title() const override { return "Random"; }

  SolverOutcome solve(const PlacementProblem& problem,
                      SolverContext& context) const override {
    BaselineResult result = random_placement(problem, context.rng());
    SolverOutcome outcome(std::move(result.placement));
    outcome.hit_ratio = result.hit_ratio;
    return outcome;
  }
};

class LocalSearchSolver final : public Solver {
 public:
  explicit LocalSearchSolver(LocalSearchConfig config) : config_(config) {}

  std::string name() const override { return "ls"; }
  std::string title() const override { return "1-swap Local Search"; }
  bool can_refine() const override { return true; }

  SolverOutcome solve(const PlacementProblem& problem,
                      SolverContext& context) const override {
    const PlacementSolution empty(problem.num_servers(), problem.num_models());
    return refine(problem, empty, context);
  }

  SolverOutcome refine(const PlacementProblem& problem,
                       const PlacementSolution& initial,
                       SolverContext& /*context*/) const override {
    LocalSearchResult result = local_search(problem, initial, config_);
    SolverOutcome outcome(std::move(result.placement));
    outcome.hit_ratio = result.hit_ratio;
    outcome.iterations = result.swaps + result.additions;
    return outcome;
  }

 private:
  LocalSearchConfig config_;
};

/// Global dedup + marginal-gain reallocation (core::repair_placement) as a
/// composable refiner: "gen+repair" evicts copies whose global marginal gain
/// is zero and refills the freed capacity against the global objective. As a
/// standalone base it greedy-fills every server from scratch through the
/// same refill machinery (a CountedCoverage twin of gen_naive). With no tile
/// structure available here, every server is its own dedup group.
class RepairSolver final : public Solver {
 public:
  explicit RepairSolver(RepairPassConfig config) : config_(config) {}

  std::string name() const override { return "repair"; }
  std::string title() const override { return "Dedup Repair"; }
  bool can_refine() const override { return true; }

  SolverOutcome solve(const PlacementProblem& problem,
                      SolverContext& /*context*/) const override {
    PlacementSolution placement(problem.num_servers(), problem.num_models());
    CountedCoverage coverage(problem);
    std::vector<ServerId> servers(problem.num_servers());
    std::iota(servers.begin(), servers.end(), ServerId{0});
    std::vector<ServerStorage> storage;
    storage.reserve(servers.size());
    for (const ServerId m : servers) {
      storage.emplace_back(problem.library(), problem.capacity(m));
    }
    const RefillStats stats =
        greedy_refill(problem, coverage, storage, servers, placement,
                      RefillConfig{config_.threads, config_.gain_tolerance});
    SolverOutcome outcome(std::move(placement));
    outcome.hit_ratio = coverage.hit_ratio();
    outcome.gain_evaluations = stats.gain_evaluations;
    outcome.iterations = stats.additions;
    return outcome;
  }

  SolverOutcome refine(const PlacementProblem& problem,
                       const PlacementSolution& initial,
                       SolverContext& /*context*/) const override {
    PlacementSolution repaired = initial;
    const RepairPassStats stats =
        repair_placement(problem, repaired, /*server_group=*/{}, config_);
    SolverOutcome outcome(std::move(repaired));
    outcome.hit_ratio = stats.hit_ratio;
    outcome.gain_evaluations = stats.gain_evaluations;
    outcome.iterations = stats.duplicates_evicted + stats.models_added;
    return outcome;
  }

 private:
  RepairPassConfig config_;
};

/// base+refiner(s): runs the base, then each refiner on the best placement
/// so far. Work counters accumulate; the deadline is checked before every
/// refinement stage (refiners never *lose* quality, so skipping is safe).
class CompositeSolver final : public Solver {
 public:
  CompositeSolver(std::unique_ptr<Solver> base,
                  std::vector<std::unique_ptr<Solver>> refiners)
      : base_(std::move(base)), refiners_(std::move(refiners)) {}

  std::string name() const override {
    std::string joined = base_->name();
    for (const auto& refiner : refiners_) joined += "+" + refiner->name();
    return joined;
  }

  std::string title() const override {
    std::string joined = base_->title();
    for (const auto& refiner : refiners_) joined += " + " + refiner->title();
    return joined;
  }

  SolverOutcome solve(const PlacementProblem& problem,
                      SolverContext& context) const override {
    SolverOutcome outcome = base_->solve(problem, context);
    for (const auto& refiner : refiners_) {
      if (context.expired()) {
        context.emit("deadline expired: skipping '" + refiner->name() +
                     "' refinement");
        break;
      }
      SolverOutcome refined = refiner->refine(problem, outcome.placement, context);
      refined.gain_evaluations += outcome.gain_evaluations;
      refined.iterations += outcome.iterations;
      // A bound proved by the base stays valid for any refinement of it.
      if (!refined.optimality_bound) refined.optimality_bound = outcome.optimality_bound;
      outcome = std::move(refined);
    }
    return outcome;
  }

 private:
  std::unique_ptr<Solver> base_;
  std::vector<std::unique_ptr<Solver>> refiners_;
};

// ----------------------------------------------------------------- factories

SpecConfig spec_config_from(const support::Options& options) {
  options.check_unknown({"eps", "mode", "states", "max_combinations",
                         "max_profit_states", "order", "threads"});
  SpecConfig config;
  config.threads = options.get_size("threads", config.threads);
  const std::string mode = options.get_string("mode", "profit");
  if (mode == "profit") {
    config.solver.mode = DpMode::kProfitRounding;
  } else if (mode == "weight") {
    config.solver.mode = DpMode::kWeightQuantized;
  } else {
    throw std::invalid_argument("spec: mode must be profit|weight, got '" + mode +
                                "'");
  }
  config.solver.epsilon = options.get_double("eps", config.solver.epsilon);
  config.solver.weight_states =
      options.get_size("states", config.solver.weight_states);
  config.solver.max_combinations =
      options.get_size("max_combinations", config.solver.max_combinations);
  config.solver.max_profit_states =
      options.get_size("max_profit_states", config.solver.max_profit_states);
  const std::string order = options.get_string("order", "natural");
  if (order == "natural") {
    config.order = SpecConfig::ServerOrder::kNatural;
  } else if (order == "mass") {
    config.order = SpecConfig::ServerOrder::kByReachableMassDesc;
  } else {
    throw std::invalid_argument("spec: order must be natural|mass, got '" + order +
                                "'");
  }
  return config;
}

GenConfig gen_config_from(const support::Options& options, bool lazy_default) {
  options.check_unknown({"lazy", "rule", "threads"});
  GenConfig config;
  config.lazy = options.get_bool("lazy", lazy_default);
  config.threads = options.get_size("threads", config.threads);
  const std::string rule = options.get_string("rule", "gain");
  if (rule == "gain") {
    config.rule = GreedyRule::kGain;
  } else if (rule == "per_byte") {
    config.rule = GreedyRule::kGainPerByte;
  } else {
    throw std::invalid_argument("gen: rule must be gain|per_byte, got '" + rule +
                                "'");
  }
  return config;
}

void register_builtins(SolverRegistry& registry) {
  registry.add(
      "spec",
      "TrimCaching Spec: successive greedy + per-server DP (Alg. 1+2); "
      "options eps, mode=profit|weight, states, max_combinations, "
      "order=natural|mass, threads (0=auto; bit-identical at any count)",
      [](const support::Options& options) -> std::unique_ptr<Solver> {
        return std::make_unique<SpecSolver>(spec_config_from(options));
      });
  registry.add(
      "gen",
      "TrimCaching Gen: dedup-aware submodular greedy (Alg. 3, lazy driver); "
      "options lazy=0|1, rule=gain|per_byte, threads (0=auto; bit-identical "
      "at any count)",
      [](const support::Options& options) -> std::unique_ptr<Solver> {
        return std::make_unique<GenSolver>("gen", gen_config_from(options, true));
      });
  registry.add(
      "gen_naive",
      "TrimCaching Gen with the literal full-rescan driver of Alg. 3; "
      "options rule=gain|per_byte, threads (0=auto; batched per-round "
      "rescan, bit-identical at any count)",
      [](const support::Options& options) -> std::unique_ptr<Solver> {
        return std::make_unique<GenSolver>("gen_naive",
                                           gen_config_from(options, false));
      });
  registry.add(
      "independent",
      "Independent Caching: sharing-oblivious greedy baseline (paper SVII-A)",
      [](const support::Options& options) -> std::unique_ptr<Solver> {
        options.check_unknown({});
        return std::make_unique<IndependentSolver>();
      });
  registry.add(
      "exact",
      "Exact optimum of P1.1 (Eq. 6) by branch-and-bound, reduced scale only; "
      "options bnb=0|1, max_vars",
      [](const support::Options& options) -> std::unique_ptr<Solver> {
        options.check_unknown({"bnb", "max_vars"});
        ExactConfig config;
        config.branch_and_bound = options.get_bool("bnb", true);
        config.max_decision_vars =
            options.get_size("max_vars", config.max_decision_vars);
        return std::make_unique<ExactSolverAdapter>(config);
      });
  registry.add(
      "top_pop",
      "Top-popularity baseline: every server caches the globally hottest "
      "models that fit (dedup-aware)",
      [](const support::Options& options) -> std::unique_ptr<Solver> {
        options.check_unknown({});
        return std::make_unique<TopPopularitySolver>();
      });
  registry.add(
      "random",
      "Uniformly random feasible placement (sanity floor); draws from the "
      "solver context RNG",
      [](const support::Options& options) -> std::unique_ptr<Solver> {
        options.check_unknown({});
        return std::make_unique<RandomSolver>();
      });
  registry.add(
      "repair",
      "Global dedup + marginal-gain reallocation: evicts duplicate copies "
      "with zero global gain, refills freed capacity; composable as "
      "'<base>+repair' or standalone greedy fill; options threads (0=auto; "
      "bit-identical at any count), tol",
      [](const support::Options& options) -> std::unique_ptr<Solver> {
        options.check_unknown({"threads", "tol"});
        RepairPassConfig config;
        config.threads = options.get_size("threads", config.threads);
        config.eviction_tolerance =
            options.get_double("tol", config.eviction_tolerance);
        return std::make_unique<RepairSolver>(config);
      });
  registry.add(
      "ls",
      "1-swap local search; standalone or composed as '<base>+ls'; "
      "options rounds, min_gain",
      [](const support::Options& options) -> std::unique_ptr<Solver> {
        options.check_unknown({"rounds", "min_gain"});
        LocalSearchConfig config;
        config.max_rounds = options.get_size("rounds", config.max_rounds);
        config.min_gain = options.get_double("min_gain", config.min_gain);
        return std::make_unique<LocalSearchSolver>(config);
      });
}

}  // namespace

// ------------------------------------------------------------------ registry

SolverRegistry& SolverRegistry::instance() {
  static SolverRegistry* registry = [] {
    auto* fresh = new SolverRegistry();
    register_builtins(*fresh);
    return fresh;
  }();
  return *registry;
}

void SolverRegistry::add(std::string name, std::string summary, Factory factory) {
  if (name.empty() || name.find(':') != std::string::npos ||
      name.find('+') != std::string::npos) {
    throw std::invalid_argument("SolverRegistry: invalid name '" + name + "'");
  }
  if (!factory) throw std::invalid_argument("SolverRegistry: null factory");
  if (!entries_.emplace(std::move(name), Entry{std::move(summary), std::move(factory)})
           .second) {
    throw std::invalid_argument("SolverRegistry: duplicate solver name");
  }
}

bool SolverRegistry::contains(std::string_view name) const {
  return entries_.find(name) != entries_.end();
}

std::vector<SolverRegistry::Info> SolverRegistry::list() const {
  std::vector<Info> infos;
  infos.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) {
    infos.push_back(Info{name, entry.summary});
  }
  return infos;
}

std::unique_ptr<Solver> SolverRegistry::make_single(std::string_view segment) const {
  const auto colon = segment.find(':');
  const std::string name(segment.substr(0, colon));
  const std::string option_text(
      colon == std::string_view::npos ? std::string_view{} : segment.substr(colon + 1));
  const auto it = entries_.find(name);
  if (it == entries_.end()) {
    std::string message = "unknown solver '" + name + "'; available:";
    for (const auto& [known, entry] : entries_) {
      (void)entry;
      message += " " + known;
    }
    throw std::invalid_argument(message);
  }
  return it->second.factory(support::Options::parse_pairs(option_text));
}

std::unique_ptr<Solver> SolverRegistry::make(std::string_view spec) const {
  std::vector<std::string_view> segments;
  std::size_t start = 0;
  while (true) {
    const auto plus = spec.find('+', start);
    segments.push_back(spec.substr(start, plus - start));
    if (plus == std::string_view::npos) break;
    start = plus + 1;
  }
  for (const auto segment : segments) {
    if (segment.empty()) {
      throw std::invalid_argument("empty solver segment in spec '" +
                                  std::string(spec) + "'");
    }
  }
  std::unique_ptr<Solver> base = make_single(segments.front());
  if (segments.size() == 1) return base;

  std::vector<std::unique_ptr<Solver>> refiners;
  for (std::size_t s = 1; s < segments.size(); ++s) {
    std::unique_ptr<Solver> refiner = make_single(segments[s]);
    if (!refiner->can_refine()) {
      throw std::invalid_argument("solver '" + refiner->name() +
                                  "' cannot be composed as a refiner in '" +
                                  std::string(spec) + "'");
    }
    refiners.push_back(std::move(refiner));
  }
  return std::make_unique<CompositeSolver>(std::move(base), std::move(refiners));
}

std::string SolverRegistry::title_of(std::string_view spec) {
  return instance().make(spec)->title();
}

}  // namespace trimcaching::core
