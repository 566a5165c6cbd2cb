#include "src/core/exact_solver.h"

#include <algorithm>
#include <stdexcept>

#include "src/core/objective.h"
#include "src/core/storage.h"

namespace trimcaching::core {

namespace {

struct Var {
  ServerId server = 0;
  ModelId model = 0;
};

class Search {
 public:
  Search(const PlacementProblem& problem, const ExactConfig& config,
         std::vector<Var> vars)
      : problem_(&problem),
        config_(&config),
        vars_(std::move(vars)),
        coverage_(problem),
        best_placement_(problem.num_servers(), problem.num_models()) {
    storage_.reserve(problem.num_servers());
    for (ServerId m = 0; m < problem.num_servers(); ++m) {
      storage_.emplace_back(problem.library(), problem.capacity(m));
    }
    // remaining_mass_[t] = request mass servable by variables with index >= t
    // and by no variable < t... a simpler valid bound: mass servable by some
    // variable with index >= t, regardless of coverage (monotone objective).
    // We refine at query time by skipping already-covered cells.
    cell_last_var_.assign(problem.num_users() * problem.num_models(), -1);
    cell_mass_.assign(cell_last_var_.size(), 0.0);
    for (std::size_t t = 0; t < vars_.size(); ++t) {
      for (const HitEntry& entry : problem.hit_list(vars_[t].server, vars_[t].model)) {
        const std::size_t cell =
            static_cast<std::size_t>(entry.user) * problem.num_models() +
            vars_[t].model;
        cell_last_var_[cell] = static_cast<std::ptrdiff_t>(t);
        cell_mass_[cell] = entry.mass;
      }
    }
  }

  void run() {
    chosen_.clear();
    dfs(0);
  }

  [[nodiscard]] double best_mass() const noexcept { return best_mass_; }
  [[nodiscard]] const PlacementSolution& best_placement() const noexcept {
    return best_placement_;
  }
  [[nodiscard]] std::size_t nodes() const noexcept { return nodes_; }

 private:
  /// Optimistic completion: uncovered mass still reachable from depth t on.
  [[nodiscard]] double future_mass(std::size_t t) const {
    double mass = 0.0;
    for (std::size_t cell = 0; cell < cell_last_var_.size(); ++cell) {
      const auto k = static_cast<UserId>(cell / problem_->num_models());
      const auto i = static_cast<ModelId>(cell % problem_->num_models());
      if (cell_last_var_[cell] >= static_cast<std::ptrdiff_t>(t) &&
          !coverage_.covered(k, i)) {
        mass += cell_mass_[cell];
      }
    }
    return mass;
  }

  void dfs(std::size_t t) {
    ++nodes_;
    if (coverage_.hit_mass() > best_mass_) {
      best_mass_ = coverage_.hit_mass();
      best_placement_ =
          PlacementSolution(problem_->num_servers(), problem_->num_models());
      for (const Var& var : chosen_) best_placement_.place(var.server, var.model);
    }
    if (t == vars_.size()) return;
    if (config_->branch_and_bound &&
        coverage_.hit_mass() + future_mass(t) <= best_mass_ + 1e-15) {
      return;  // cannot beat the incumbent
    }
    const Var& var = vars_[t];
    // Branch x = 1 first (greedier incumbents improve pruning).
    if (storage_[var.server].incremental_cost(var.model) <=
        storage_[var.server].free()) {
      ServerStorage saved = storage_[var.server];
      storage_[var.server].add(var.model);
      coverage_.add(var.server, var.model);
      chosen_.push_back(var);
      dfs(t + 1);
      chosen_.pop_back();
      coverage_.remove(var.server, var.model);
      storage_[var.server] = std::move(saved);
    }
    dfs(t + 1);  // branch x = 0
  }

  const PlacementProblem* problem_;
  const ExactConfig* config_;
  std::vector<Var> vars_;
  CountedCoverage coverage_;
  std::vector<ServerStorage> storage_;
  std::vector<Var> chosen_;
  std::vector<std::ptrdiff_t> cell_last_var_;
  std::vector<double> cell_mass_;  ///< p_{k,i} of every cell some hit list holds

  double best_mass_ = 0.0;
  PlacementSolution best_placement_;
  std::size_t nodes_ = 0;
};

}  // namespace

ExactResult exact_optimal(const PlacementProblem& problem, const ExactConfig& config) {
  std::vector<Var> vars;
  for (ServerId m = 0; m < problem.num_servers(); ++m) {
    for (ModelId i = 0; i < problem.num_models(); ++i) {
      if (!problem.hit_list(m, i).empty()) vars.push_back(Var{m, i});
    }
  }
  if (vars.size() > config.max_decision_vars) {
    throw std::invalid_argument(
        "exact_optimal: instance too large (" + std::to_string(vars.size()) +
        " decision variables > " + std::to_string(config.max_decision_vars) + ")");
  }
  // Server-major order so sibling variables share storage state locality.
  std::stable_sort(vars.begin(), vars.end(), [](const Var& a, const Var& b) {
    if (a.server != b.server) return a.server < b.server;
    return a.model < b.model;
  });

  Search search(problem, config, std::move(vars));
  search.run();

  ExactResult result{search.best_placement(),
                     problem.total_mass() > 0
                         ? search.best_mass() / problem.total_mass()
                         : 0.0,
                     search.nodes()};
  return result;
}

}  // namespace trimcaching::core
