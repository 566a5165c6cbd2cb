#include "src/core/objective.h"

#include <stdexcept>

namespace trimcaching::core {

double expected_hit_ratio(const PlacementProblem& problem,
                          const PlacementSolution& placement) {
  if (placement.num_servers() != problem.num_servers() ||
      placement.num_models() != problem.num_models()) {
    throw std::invalid_argument("expected_hit_ratio: dimension mismatch");
  }
  if (problem.compute_constrained()) {
    const double mass = problem.total_mass();
    return mass > 0.0 ? evaluate_joint(problem, placement).hit_mass / mass : 0.0;
  }
  CoverageState coverage(problem);
  for (ServerId m = 0; m < problem.num_servers(); ++m) {
    for (const ModelId i : placement.models_on(m)) coverage.add(m, i);
  }
  return coverage.hit_ratio();
}

JointEvaluation evaluate_joint(const PlacementProblem& problem,
                               const PlacementSolution& placement) {
  if (placement.num_servers() != problem.num_servers() ||
      placement.num_models() != problem.num_models()) {
    throw std::invalid_argument("evaluate_joint: dimension mismatch");
  }
  // The canonical assignment: servers ascending, placed models ascending;
  // CoverageState::add walks each hit list in ascending user order and
  // commits its compute charges.
  CoverageState coverage(problem);
  JointEvaluation eval;
  eval.server_loads.resize(problem.num_servers());
  for (ServerId m = 0; m < problem.num_servers(); ++m) {
    for (ModelId i = 0; i < problem.num_models(); ++i) {
      if (placement.placed(m, i)) coverage.add(m, i);
    }
    eval.server_loads[m] = coverage.server_load(m);
  }
  eval.hit_mass = coverage.hit_mass();
  return eval;
}

CountedCoverage::CountedCoverage(const PlacementProblem& problem)
    : problem_(&problem),
      counts_(problem.num_users() * problem.num_models(), 0) {}

void CountedCoverage::add(ServerId m, ModelId i) {
  for (const HitEntry& entry : problem_->hit_list(m, i)) {
    auto& count =
        counts_[static_cast<std::size_t>(i) * problem_->num_users() + entry.user];
    if (count++ == 0) hit_mass_ += entry.mass;
  }
}

void CountedCoverage::add_placement(const PlacementSolution& placement) {
  if (placement.num_servers() != problem_->num_servers() ||
      placement.num_models() != problem_->num_models()) {
    throw std::invalid_argument("CountedCoverage::add_placement: dimension mismatch");
  }
  for (ServerId m = 0; m < problem_->num_servers(); ++m) {
    for (const ModelId i : placement.models_on(m)) add(m, i);
  }
}

void CountedCoverage::remove(ServerId m, ModelId i) {
  for (const HitEntry& entry : problem_->hit_list(m, i)) {
    auto& count =
        counts_[static_cast<std::size_t>(i) * problem_->num_users() + entry.user];
    if (count <= 0) throw std::logic_error("CountedCoverage::remove: not added");
    if (--count == 0) hit_mass_ -= entry.mass;
  }
}

double CountedCoverage::marginal_mass(ServerId m, ModelId i) const {
  double gain = 0.0;
  for (const HitEntry& entry : problem_->hit_list(m, i)) {
    if (counts_[static_cast<std::size_t>(i) * problem_->num_users() + entry.user] ==
        0) {
      gain += entry.mass;
    }
  }
  return gain;
}

double CountedCoverage::removal_loss(ServerId m, ModelId i) const {
  double loss = 0.0;
  for (const HitEntry& entry : problem_->hit_list(m, i)) {
    if (counts_[static_cast<std::size_t>(i) * problem_->num_users() + entry.user] ==
        1) {
      loss += entry.mass;
    }
  }
  return loss;
}

bool CountedCoverage::covered(UserId k, ModelId i) const {
  if (k >= problem_->num_users() || i >= problem_->num_models()) {
    throw std::out_of_range("CountedCoverage::covered");
  }
  return counts_[static_cast<std::size_t>(i) * problem_->num_users() + k] > 0;
}

double CountedCoverage::hit_ratio() const {
  const double mass = problem_->total_mass();
  return mass > 0.0 ? hit_mass_ / mass : 0.0;
}

CoverageState::CoverageState(const PlacementProblem& problem)
    : problem_(&problem),
      covered_(problem.num_users() * problem.num_models(), 0),
      compute_constrained_(problem.compute_constrained()) {
  if (compute_constrained_) loads_.assign(problem.num_servers(), 0.0);
}

double CoverageState::marginal_mass(ServerId m, ModelId i) const {
  if (compute_constrained_) {
    // Simulate the commit walk: serve uncovered entries in list order while
    // they fit the server's remaining compute headroom. Matches add() below
    // charge for charge, so the gain a driver acts on is the gain it gets.
    const double cap = problem_->compute_capacity(m);
    double load = loads_[m];
    double gain = 0.0;
    for (const HitEntry& entry : problem_->hit_list(m, i)) {
      if (covered_[static_cast<std::size_t>(i) * problem_->num_users() + entry.user]) {
        continue;
      }
      const double charge = entry.mass * problem_->compute_cost(entry.user, i);
      if (load + charge <= cap) {
        load += charge;
        gain += entry.mass;
      }
    }
    return gain;
  }
  double gain = 0.0;
  for (const HitEntry& entry : problem_->hit_list(m, i)) {
    if (!covered_[static_cast<std::size_t>(i) * problem_->num_users() + entry.user]) {
      gain += entry.mass;
    }
  }
  return gain;
}

double CoverageState::uncovered_compute_load(ServerId m, ModelId i) const {
  if (!compute_constrained_) return 0.0;
  double want = 0.0;
  for (const HitEntry& entry : problem_->hit_list(m, i)) {
    if (!covered_[static_cast<std::size_t>(i) * problem_->num_users() + entry.user]) {
      want += entry.mass * problem_->compute_cost(entry.user, i);
    }
  }
  return want;
}

double CoverageState::server_load(ServerId m) const {
  if (!compute_constrained_) {
    if (m >= problem_->num_servers()) throw std::out_of_range("CoverageState::server_load");
    return 0.0;
  }
  return loads_.at(m);
}

double CoverageState::marginal_gain(ServerId m, ModelId i) const {
  const double mass = problem_->total_mass();
  return mass > 0.0 ? marginal_mass(m, i) / mass : 0.0;
}

void CoverageState::add(ServerId m, ModelId i) {
  if (compute_constrained_) {
    const double cap = problem_->compute_capacity(m);
    double& load = loads_[m];
    for (const HitEntry& entry : problem_->hit_list(m, i)) {
      char& flag =
          covered_[static_cast<std::size_t>(i) * problem_->num_users() + entry.user];
      if (flag) continue;
      const double charge = entry.mass * problem_->compute_cost(entry.user, i);
      if (load + charge <= cap) {
        flag = 1;
        load += charge;
        hit_mass_ += entry.mass;
      }
    }
    return;
  }
  for (const HitEntry& entry : problem_->hit_list(m, i)) {
    char& flag =
        covered_[static_cast<std::size_t>(i) * problem_->num_users() + entry.user];
    if (!flag) {
      flag = 1;
      hit_mass_ += entry.mass;
    }
  }
}

bool CoverageState::covered(UserId k, ModelId i) const {
  if (k >= problem_->num_users() || i >= problem_->num_models()) {
    throw std::out_of_range("CoverageState::covered");
  }
  return covered_[static_cast<std::size_t>(i) * problem_->num_users() + k] != 0;
}

double CoverageState::hit_ratio() const {
  const double mass = problem_->total_mass();
  return mass > 0.0 ? hit_mass_ / mass : 0.0;
}

}  // namespace trimcaching::core
