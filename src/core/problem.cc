#include "src/core/problem.h"

#include <limits>
#include <stdexcept>

namespace trimcaching::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::vector<ServerId> identity_servers(std::size_t n) {
  std::vector<ServerId> ids(n);
  for (std::size_t m = 0; m < n; ++m) ids[m] = static_cast<ServerId>(m);
  return ids;
}

std::vector<UserId> identity_users(std::size_t n) {
  std::vector<UserId> ids(n);
  for (std::size_t k = 0; k < n; ++k) ids[k] = static_cast<UserId>(k);
  return ids;
}

void check_subset(const std::vector<std::uint32_t>& ids, std::size_t bound,
                  const char* what) {
  if (ids.empty()) {
    throw std::invalid_argument(std::string("PlacementProblem: empty ") + what +
                                " subset");
  }
  for (std::size_t e = 0; e < ids.size(); ++e) {
    if (ids[e] >= bound || (e > 0 && ids[e] <= ids[e - 1])) {
      throw std::invalid_argument(std::string("PlacementProblem: ") + what +
                                  " subset must be strictly increasing ids in range");
    }
  }
}

}  // namespace

PlacementProblem::PlacementProblem(const wireless::NetworkTopology& topology,
                                   const model::ModelLibrary& library,
                                   const workload::RequestModel& requests)
    : PlacementProblem(topology, library, requests,
                       identity_servers(topology.num_servers()),
                       identity_users(topology.num_users())) {
  is_view_ = false;
}

PlacementProblem::PlacementProblem(const wireless::NetworkTopology& topology,
                                   const model::ModelLibrary& library,
                                   const workload::RequestModel& requests,
                                   std::vector<ServerId> servers,
                                   std::vector<UserId> users)
    : topology_(&topology),
      library_(&library),
      requests_(&requests),
      num_servers_(servers.size()),
      num_users_(users.size()),
      num_models_(library.num_models()),
      is_view_(true),
      server_ids_(std::move(servers)),
      user_ids_(std::move(users)) {
  if (!library.finalized()) {
    throw std::invalid_argument("PlacementProblem: library must be finalized");
  }
  if (requests.num_users() != topology.num_users() ||
      requests.num_models() != num_models_) {
    throw std::invalid_argument("PlacementProblem: request model dimensions mismatch");
  }
  check_subset(server_ids_, topology.num_servers(), "server");
  check_subset(user_ids_, topology.num_users(), "user");
  build_links();
  build_hit_lists();
}

void PlacementProblem::build_links() {
  backhaul_bps_ = topology_->radio().backhaul_bps;
  compute_caps_.resize(num_servers_);
  for (std::size_t m = 0; m < num_servers_; ++m) {
    compute_caps_[m] = topology_->compute_capacity(server_ids_[m]);
    if (compute_caps_[m] != kInf) compute_constrained_ = true;
  }
  payload_bits_.resize(num_models_);
  for (ModelId i = 0; i < num_models_; ++i) {
    payload_bits_[i] = support::bits(library_->model_size(i));
  }

  // Global -> local server translation for the association pass.
  std::vector<std::uint32_t> local_server(topology_->num_servers(), kInvalidId);
  for (std::size_t m = 0; m < num_servers_; ++m) local_server[server_ids_[m]] = m;

  // Per-(m, k) inverse effective rates from the topology's flat CSR link
  // views: one pass over each user's covering span fills the direct links
  // and the best-relay fallback for everything else.
  const auto& offsets = topology_->covering_offsets();
  const auto& flat = topology_->covering_flat();
  const auto& avg_rate = topology_->link_avg_rate_bps();
  inv_eff_.assign(num_servers_ * num_users_, kInf);
  assoc_.assign(num_servers_ * num_users_, 0);
  for (std::size_t k = 0; k < num_users_; ++k) {
    const UserId gk = user_ids_[k];
    double relay_inv = kInf;
    for (std::size_t l = offsets[gk]; l < offsets[gk + 1]; ++l) {
      if (avg_rate[l] > 0) relay_inv = std::min(relay_inv, 1.0 / avg_rate[l]);
    }
    for (std::size_t m = 0; m < num_servers_; ++m) {
      inv_eff_[m * num_users_ + k] = relay_inv;
    }
    for (std::size_t l = offsets[gk]; l < offsets[gk + 1]; ++l) {
      const std::uint32_t lm = local_server[flat[l]];
      if (lm == kInvalidId) continue;
      assoc_[lm * num_users_ + k] = 1;
      inv_eff_[lm * num_users_ + k] = avg_rate[l] > 0 ? 1.0 / avg_rate[l] : kInf;
    }
  }
}

void PlacementProblem::build_hit_lists() {
  // Hit lists over the sparse p > 0 request support: user-major so each
  // (m, i) list collects users in ascending local order.
  hit_lists_.assign(num_servers_ * num_models_, {});
  struct Row {
    ModelId model;
    double mass;
    double bits;
    double budget_s;
  };
  std::vector<Row> rows;
  std::vector<char> row_reachable;
  total_mass_ = 0.0;
  reachable_mass_ = 0.0;
  for (std::size_t k = 0; k < num_users_; ++k) {
    const UserId gk = global_user(static_cast<UserId>(k));
    rows.clear();
    for (const ModelId i : requests_->requested_models(gk)) {
      const double p = requests_->probability(gk, i);
      total_mass_ += p;
      const double budget = requests_->deadline_s(gk, i) - requests_->inference_s(gk, i);
      if (budget <= 0) continue;
      rows.push_back(Row{i, p, payload_bits_[i], budget});
    }
    row_reachable.assign(rows.size(), 0);
    for (std::size_t m = 0; m < num_servers_; ++m) {
      const double inv = inv_eff_[m * num_users_ + k];
      if (inv == kInf) continue;
      const bool direct = assoc_[m * num_users_ + k] != 0;
      for (std::size_t r = 0; r < rows.size(); ++r) {
        const Row& row = rows[r];
        const double latency = direct
                                   ? row.bits * inv
                                   : row.bits / backhaul_bps_ + row.bits * inv;
        if (latency <= row.budget_s) {
          hit_lists_[m * num_models_ + row.model].push_back(
              HitEntry{static_cast<UserId>(k), row.mass});
          row_reachable[r] = 1;
        }
      }
    }
    for (std::size_t r = 0; r < rows.size(); ++r) {
      if (row_reachable[r]) reachable_mass_ += rows[r].mass;
    }
  }
}

bool PlacementProblem::eligible(ServerId m, UserId k, ModelId i) const {
  if (m >= num_servers_ || k >= num_users_ || i >= num_models_) {
    throw std::out_of_range("PlacementProblem::eligible");
  }
  const UserId gk = global_user(k);
  const double budget = requests_->deadline_s(gk, i) - requests_->inference_s(gk, i);
  if (budget <= 0) return false;
  const double inv = inv_eff_[static_cast<std::size_t>(m) * num_users_ + k];
  if (inv == kInf) return false;
  const double bits = payload_bits_[i];
  const double latency = assoc_[static_cast<std::size_t>(m) * num_users_ + k] != 0
                             ? bits * inv
                             : bits / backhaul_bps_ + bits * inv;
  return latency <= budget;
}

std::span<const double> PlacementProblem::inverse_effective_rates(ServerId m) const {
  if (m >= num_servers_) {
    throw std::out_of_range("PlacementProblem::inverse_effective_rates");
  }
  return {inv_eff_.data() + static_cast<std::size_t>(m) * num_users_, num_users_};
}

std::span<const char> PlacementProblem::associations(ServerId m) const {
  if (m >= num_servers_) throw std::out_of_range("PlacementProblem::associations");
  return {assoc_.data() + static_cast<std::size_t>(m) * num_users_, num_users_};
}

std::span<const HitEntry> PlacementProblem::hit_list(ServerId m, ModelId i) const {
  if (m >= num_servers_ || i >= num_models_) {
    throw std::out_of_range("PlacementProblem::hit_list");
  }
  return hit_lists_[static_cast<std::size_t>(m) * num_models_ + i];
}

}  // namespace trimcaching::core
