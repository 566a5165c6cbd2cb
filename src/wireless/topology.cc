#include "src/wireless/topology.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/support/parallel.h"

namespace trimcaching::wireless {

void RadioConfig::validate() const {
  if (total_bandwidth_hz <= 0) throw std::invalid_argument("RadioConfig: bandwidth must be > 0");
  if (total_power_w <= 0) throw std::invalid_argument("RadioConfig: power must be > 0");
  if (coverage_radius_m <= 0) throw std::invalid_argument("RadioConfig: radius must be > 0");
  if (active_probability <= 0 || active_probability > 1) {
    throw std::invalid_argument("RadioConfig: active probability must be in (0,1]");
  }
  if (backhaul_bps <= 0) throw std::invalid_argument("RadioConfig: backhaul rate must be > 0");
  channel.validate();
}

NetworkTopology::NetworkTopology(Area area, RadioConfig radio,
                                 std::vector<Point> server_positions,
                                 std::vector<Point> user_positions,
                                 std::vector<support::Bytes> capacities)
    : area_(area),
      radio_(radio),
      server_pos_(std::move(server_positions)),
      user_pos_(std::move(user_positions)),
      capacities_(std::move(capacities)) {
  radio_.validate();
  if (server_pos_.empty()) throw std::invalid_argument("NetworkTopology: no servers");
  if (capacities_.size() != server_pos_.size()) {
    throw std::invalid_argument("NetworkTopology: capacities/servers size mismatch");
  }
  server_grid_.emplace(area_, radio_.coverage_radius_m, server_pos_);
  rebuild();
}

void NetworkTopology::rebuild() {
  const std::size_t m_count = server_pos_.size();
  const std::size_t k_count = user_pos_.size();
  // Lists are cleared, not re-created: a rebuild per mobility slot reuses
  // every list's capacity.
  covering_.resize(k_count);
  associated_.resize(m_count);
  for (auto& users : associated_) users.clear();

  // Pass 1 — coverage, streamed over users in fixed-size blocks through the
  // persistent server grid (cell = coverage radius): each user's query
  // visits only the 3x3 cell neighbourhood around its position, so
  // association is O(K · servers-per-neighbourhood) instead of the all-pairs
  // O(M · K) scan. The blocks are the sharding granularity: each one fills
  // only its own covering_[k] slots, so the block fan-out is deterministic
  // for any pool width (and runs inline when nested under a tile shard).
  constexpr std::size_t kUserBlock = 4096;
  const std::size_t num_blocks = (k_count + kUserBlock - 1) / kUserBlock;
  support::parallel_for(num_blocks, 0, [&](std::size_t b) {
    const std::size_t block_end = std::min(k_count, (b + 1) * kUserBlock);
    for (std::size_t k = b * kUserBlock; k < block_end; ++k) {
      auto& cover = covering_[k];
      cover.clear();
      server_grid_->for_candidates_in_disc(
          user_pos_[k], radio_.coverage_radius_m, [&](std::size_t m) {
            if (distance(server_pos_[m], user_pos_[k]) <= radio_.coverage_radius_m) {
              cover.push_back(static_cast<ServerId>(m));
            }
          });
      // Candidates arrive cell-row-major; the per-user list must stay
      // ascending (is_associated binary-searches it).
      std::sort(cover.begin(), cover.end());
    }
  });
  std::vector<std::size_t> assoc_count(m_count, 0);
  for (std::size_t k = 0; k < k_count; ++k) {
    for (const ServerId m : covering_[k]) ++assoc_count[m];
  }
  for (std::size_t m = 0; m < m_count; ++m) associated_[m].reserve(assoc_count[m]);
  for (std::size_t k = 0; k < k_count; ++k) {
    for (const ServerId m : covering_[k]) {
      associated_[m].push_back(static_cast<UserId>(k));
    }
  }

  // Pass 2 — flat CSR link views consumed by the evaluation engine; this is
  // also the only rate storage (avg_rate_bps searches these spans).
  refresh_links();
  ++revision_;
}

void NetworkTopology::refresh_links() {
  const std::size_t m_count = server_pos_.size();
  const std::size_t k_count = user_pos_.size();
  std::size_t total_links = 0;
  for (std::size_t k = 0; k < k_count; ++k) total_links += covering_[k].size();

  // Per-server shares and the noise PSD hoisted out of the per-link loop
  // (L >> M). Each link's SNR is computed once and its mean rate follows
  // from it, exactly as shannon_rate() would compute it with unit fading.
  const double noise_psd = radio_.channel.effective_noise_psd();
  std::vector<double> server_bw(m_count);
  std::vector<double> server_pw(m_count);
  for (std::size_t m = 0; m < m_count; ++m) {
    server_bw[m] = per_user_bandwidth_hz(static_cast<ServerId>(m));
    server_pw[m] = per_user_power_w(static_cast<ServerId>(m));
  }

  covering_offsets_.assign(k_count + 1, 0);
  covering_flat_.clear();
  link_bandwidth_hz_.clear();
  link_mean_snr_.clear();
  link_avg_rate_.clear();
  covering_flat_.reserve(total_links);
  link_bandwidth_hz_.reserve(total_links);
  link_mean_snr_.reserve(total_links);
  link_avg_rate_.reserve(total_links);

  for (std::size_t k = 0; k < k_count; ++k) {
    for (const ServerId m : covering_[k]) {
      covering_flat_.push_back(m);
      // Availability view: a down server's links are dead (zero bandwidth,
      // SNR and rate) — it cannot deliver or relay anything.
      if (!available_.empty() && available_[m] == 0) {
        link_bandwidth_hz_.push_back(0.0);
        link_mean_snr_.push_back(0.0);
        link_avg_rate_.push_back(0.0);
        continue;
      }
      const double bw = server_bw[m];
      const double d = distance(server_pos_[m], user_pos_[k]);
      double snr =
          bw > 0 ? server_pw[m] * path_gain(radio_.channel, d) / (noise_psd * bw) : 0.0;
      // A degraded link's rate follows its derated SNR; an un-derated one
      // stays bit-identical to the maskless build.
      if (!snr_derating_.empty() && snr_derating_[m] < 1.0) snr *= snr_derating_[m];
      link_bandwidth_hz_.push_back(bw);
      link_mean_snr_.push_back(snr);
      link_avg_rate_.push_back(bw > 0 ? bw * std::log2(1.0 + snr) : 0.0);
    }
    covering_offsets_[k + 1] = covering_flat_.size();
  }
}

void NetworkTopology::set_compute_capacities(std::vector<double> capacities) {
  if (capacities.empty()) {
    compute_capacities_.clear();
    return;
  }
  if (capacities.size() != num_servers()) {
    throw std::invalid_argument(
        "NetworkTopology::set_compute_capacities: size mismatch with servers");
  }
  for (const double c : capacities) {
    if (std::isnan(c) || c < 0) {
      throw std::invalid_argument(
          "NetworkTopology::set_compute_capacities: capacities must be >= 0");
    }
  }
  compute_capacities_ = std::move(capacities);
}

void NetworkTopology::set_availability(std::vector<char> up,
                                       std::vector<double> snr_derating) {
  if (!up.empty() && up.size() != num_servers()) {
    throw std::invalid_argument(
        "NetworkTopology::set_availability: mask size mismatch with servers");
  }
  if (!snr_derating.empty()) {
    if (snr_derating.size() != num_servers()) {
      throw std::invalid_argument(
          "NetworkTopology::set_availability: derating size mismatch with servers");
    }
    for (const double f : snr_derating) {
      if (std::isnan(f) || f < 0 || f > 1) {
        throw std::invalid_argument(
            "NetworkTopology::set_availability: derating factors must be in [0, 1]");
      }
    }
  }
  available_ = std::move(up);
  snr_derating_ = std::move(snr_derating);
  // Link-view recompute under the new mask; association is untouched (the
  // mask is a delivery view, not a deployment change), but consumers of the
  // rates must refresh, so the revision moves.
  refresh_links();
  ++revision_;
}

bool NetworkTopology::is_associated(ServerId m, UserId k) const {
  const auto& cover = covering_.at(k);
  return std::binary_search(cover.begin(), cover.end(), m);
}

double NetworkTopology::per_user_bandwidth_hz(ServerId m) const {
  const std::size_t n = associated_.at(m).size();
  if (n == 0) return 0.0;
  return radio_.total_bandwidth_hz / (radio_.active_probability * static_cast<double>(n));
}

double NetworkTopology::per_user_power_w(ServerId m) const {
  const std::size_t n = associated_.at(m).size();
  if (n == 0) return 0.0;
  return radio_.total_power_w / (radio_.active_probability * static_cast<double>(n));
}

double NetworkTopology::avg_rate_bps(ServerId m, UserId k) const {
  if (m >= num_servers() || k >= num_users()) {
    throw std::out_of_range("NetworkTopology::avg_rate_bps");
  }
  const auto begin = covering_flat_.begin() + covering_offsets_[k];
  const auto end = covering_flat_.begin() + covering_offsets_[k + 1];
  const auto it = std::lower_bound(begin, end, m);
  if (it == end || *it != m) return 0.0;
  return link_avg_rate_[static_cast<std::size_t>(it - covering_flat_.begin())];
}

double NetworkTopology::faded_rate_bps(ServerId m, UserId k, double fading_gain) const {
  if (!is_associated(m, k)) return 0.0;
  const double d = distance(server_pos_.at(m), user_pos_.at(k));
  return shannon_rate(radio_.channel, per_user_bandwidth_hz(m), per_user_power_w(m), d,
                      fading_gain);
}

double NetworkTopology::delivery_seconds(ServerId m, UserId k,
                                         support::Bytes payload) const {
  return delivery_seconds(m, k, payload,
                          [this](ServerId mm, UserId kk) { return avg_rate_bps(mm, kk); });
}

double NetworkTopology::delivery_seconds(ServerId m, UserId k, support::Bytes payload,
                                         const RateFn& rate_fn) const {
  const double payload_bits = support::bits(payload);
  if (is_associated(m, k)) {
    const double rate = rate_fn(m, k);
    if (rate <= 0.0) return kInfiniteLatency;
    return payload_bits / rate;  // Eq. 4 (download part)
  }
  // Eq. 5: relay through the best covering server m'.
  double best = kInfiniteLatency;
  for (const ServerId relay : covering_.at(k)) {
    const double rate = rate_fn(relay, k);
    if (rate <= 0.0) continue;
    const double t = payload_bits / radio_.backhaul_bps + payload_bits / rate;
    best = std::min(best, t);
  }
  return best;
}

void NetworkTopology::update_user_positions(std::vector<Point> user_positions) {
  if (user_positions.size() != user_pos_.size()) {
    throw std::invalid_argument("update_user_positions: user count must not change");
  }
  user_pos_ = std::move(user_positions);
  rebuild();
}

NetworkTopology sample_topology(const Area& area, const RadioConfig& radio,
                                std::size_t num_servers, std::size_t num_users,
                                support::Bytes capacity_per_server, support::Rng& rng) {
  auto servers = uniform_points(area, num_servers, rng);
  auto users = uniform_points(area, num_users, rng);
  std::vector<support::Bytes> capacities(num_servers, capacity_per_server);
  return NetworkTopology(area, radio, std::move(servers), std::move(users),
                         std::move(capacities));
}

}  // namespace trimcaching::wireless
