#include "src/core/problem.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>

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
  build();
}

void PlacementProblem::build() {
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

  // Pass 1, user-major over the topology's flat CSR link views and the
  // sparse p > 0 request support. Per user k it fills column k of the
  // per-(m, k) inverse effective rates (direct links, best-relay fallback
  // for everything else), then stages k's relay entries per model and the
  // per-(m, i) slot events of the servers covering k. Users ascend, so every
  // staged sequence is in ascending user order and `relay_pos` (k's place in
  // R_i) increases within a slot.
  const auto& offsets = topology_->covering_offsets();
  const auto& flat = topology_->covering_flat();
  const auto& avg_rate = topology_->link_avg_rate_bps();
  inv_eff_.assign(num_servers_ * num_users_, kInf);
  assoc_.assign(num_servers_ * num_users_, 0);
  struct SlotEvent {
    std::size_t slot;          // m·I + i
    HitEntry entry;            // the direct entry (unused for a hole)
    std::uint32_t relay_pos;   // |{k' ∈ R_i : k' < k}|
    bool hole;                 // k ∈ R_i, but m covers k and misses Eq. 4
  };
  std::vector<SlotEvent> events;
  std::vector<std::size_t> event_offsets(num_servers_ * num_models_ + 1, 0);
  std::vector<std::pair<ModelId, HitEntry>> relay_staged;
  std::vector<std::size_t> relay_offsets(num_models_ + 1, 0);
  std::vector<std::uint32_t> cover;  // view servers covering user k
  total_mass_ = 0.0;
  reachable_mass_ = 0.0;
  for (std::size_t k = 0; k < num_users_; ++k) {
    const UserId gk = user_ids_[k];
    double relay_inv = kInf;
    for (std::size_t l = offsets[gk]; l < offsets[gk + 1]; ++l) {
      if (avg_rate[l] > 0) relay_inv = std::min(relay_inv, 1.0 / avg_rate[l]);
    }
    for (std::size_t m = 0; m < num_servers_; ++m) {
      inv_eff_[m * num_users_ + k] = relay_inv;
    }
    cover.clear();
    for (std::size_t l = offsets[gk]; l < offsets[gk + 1]; ++l) {
      const std::uint32_t lm = local_server[flat[l]];
      if (lm == kInvalidId) continue;
      assoc_[lm * num_users_ + k] = 1;
      inv_eff_[lm * num_users_ + k] = avg_rate[l] > 0 ? 1.0 / avg_rate[l] : kInf;
      cover.push_back(lm);
    }
    // The relay path is open only through a view server that does not
    // cover k; in a tile view every local server may cover a halo user.
    const bool relay_open = cover.size() < num_servers_;

    const workload::RequestModel::Support support = requests_->support_of(gk);
    for (std::size_t s = 0; s < support.models.size(); ++s) {
      const ModelId i = support.models[s];
      const double p = support.probability[s];
      total_mass_ += p;
      const double budget = support.deadline_s[s] - support.inference_s[s];
      if (budget <= 0) continue;
      const double bits = payload_bits_[i];
      const HitEntry entry{static_cast<UserId>(k), p};
      const bool in_relay =
          relay_inv != kInf && bits / backhaul_bps_ + bits * relay_inv <= budget;
      bool reachable = in_relay && relay_open;
      // A covering server's list holds k iff its direct link passes. When
      // that agrees with k's R_i membership the shared relay entry (same
      // user, same mass) already stands in; otherwise the slot records a
      // direct entry to splice in or a hole to cut.
      const auto relay_pos = static_cast<std::uint32_t>(relay_offsets[i + 1]);
      for (const std::uint32_t m : cover) {
        const double inv = inv_eff_[m * num_users_ + k];
        const bool direct = inv != kInf && bits * inv <= budget;
        reachable |= direct;
        if (direct == in_relay) continue;
        events.push_back(SlotEvent{m * num_models_ + i, entry, relay_pos, in_relay});
        ++event_offsets[m * num_models_ + i + 1];
      }
      if (in_relay) {
        relay_staged.emplace_back(i, entry);
        ++relay_offsets[i + 1];
      }
      if (reachable) reachable_mass_ += p;
    }
  }

  // Pass 2: stable counting sorts — slot events per slot, relay entries per
  // model. The relay block opens the pool.
  for (std::size_t s = 0; s + 1 < event_offsets.size(); ++s) {
    event_offsets[s + 1] += event_offsets[s];
  }
  for (std::size_t i = 0; i < num_models_; ++i) relay_offsets[i + 1] += relay_offsets[i];
  std::vector<SlotEvent> sorted(events.size());
  {
    std::vector<std::size_t> cursor(event_offsets.begin(), event_offsets.end() - 1);
    for (const SlotEvent& e : events) sorted[cursor[e.slot]++] = e;
  }
  events = {};
  // HitRun indexes the pool with 32 bits.
  const auto check_pool_size = [](std::size_t size) {
    if (size >= UINT32_MAX) {
      throw std::length_error("PlacementProblem: too many hit-list entries");
    }
  };
  check_pool_size(relay_staged.size());
  pool_.assign(relay_staged.size(), HitEntry{});
  {
    std::vector<std::size_t> cursor(relay_offsets.begin(), relay_offsets.end() - 1);
    for (const auto& [i, entry] : relay_staged) pool_[cursor[i]++] = entry;
  }

  // Pass 3, per (m, i) slot: cut R_i at the slot's holes and splice in its
  // direct entries, appended to the pool; pool-adjacent pieces share a run.
  // A list whose runs would average fewer than kMinMeanRun entries is laid
  // out again as one copied run (see the header).
  constexpr std::size_t kMinMeanRun = 16;
  runs_.clear();
  run_offsets_.assign(num_servers_ * num_models_ + 1, 0);
  list_sizes_.assign(num_servers_ * num_models_, 0);
  std::size_t slot_runs = 0;
  const auto append = [&](const HitEntry entry) {
    check_pool_size(pool_.size() + 1);
    const auto at = static_cast<std::uint32_t>(pool_.size());
    pool_.push_back(entry);
    if (runs_.size() > slot_runs && runs_.back().last == at) {
      ++runs_.back().last;
    } else {
      runs_.push_back(HitRun{at, at + 1});
    }
  };
  const auto lay_out = [&](std::size_t s, bool copy) {
    const std::size_t i = s % num_models_;
    const auto relay_stretch = [&](std::uint32_t first, std::uint32_t last) {
      if (!copy) {
        runs_.push_back(HitRun{first, last});
        return;
      }
      for (std::uint32_t j = first; j < last; ++j) append(pool_[j]);
    };
    const auto relay_first = static_cast<std::uint32_t>(relay_offsets[i]);
    std::uint32_t cursor = relay_first;
    for (std::size_t e = event_offsets[s]; e < event_offsets[s + 1]; ++e) {
      const SlotEvent& event = sorted[e];
      const std::uint32_t at = relay_first + event.relay_pos;
      if (at > cursor) {
        relay_stretch(cursor, at);
        cursor = at;
      }
      if (event.hole) {
        cursor = at + 1;
      } else {
        append(event.entry);
      }
    }
    const auto relay_last = static_cast<std::uint32_t>(relay_offsets[i + 1]);
    if (relay_last > cursor) relay_stretch(cursor, relay_last);
  };
  for (std::size_t s = 0; s < list_sizes_.size(); ++s) {
    const std::size_t pool_mark = pool_.size();
    slot_runs = runs_.size();
    lay_out(s, false);
    std::size_t size = 0;
    for (std::size_t r = slot_runs; r < runs_.size(); ++r) {
      size += runs_[r].last - runs_[r].first;
    }
    const std::size_t num_runs = runs_.size() - slot_runs;
    if (num_runs > 1 && size < kMinMeanRun * num_runs) {
      pool_.resize(pool_mark);
      runs_.resize(slot_runs);
      lay_out(s, true);
    }
    list_sizes_[s] = static_cast<std::uint32_t>(size);
    run_offsets_[s + 1] = runs_.size();
  }
}

bool PlacementProblem::eligible(ServerId m, UserId k, ModelId i) const {
  if (m >= num_servers_ || k >= num_users_ || i >= num_models_) {
    throw std::out_of_range("PlacementProblem::eligible");
  }
  const UserId gk = global_user(k);
  // A p = 0 pair is never requested, so it is never served (and has no QoS).
  const std::size_t s = requests_->slot(gk, i);
  if (s == workload::RequestModel::kOffSupport) return false;
  const workload::RequestModel::Support support = requests_->support_of(gk);
  const double budget = support.deadline_s[s] - support.inference_s[s];
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

HitList PlacementProblem::hit_list(ServerId m, ModelId i) const {
  if (m >= num_servers_ || i >= num_models_) {
    throw std::out_of_range("PlacementProblem::hit_list");
  }
  const std::size_t slot = static_cast<std::size_t>(m) * num_models_ + i;
  return HitList(pool_.data(),
                 {runs_.data() + run_offsets_[slot], runs_.data() + run_offsets_[slot + 1]},
                 list_sizes_[slot]);
}

}  // namespace trimcaching::core
