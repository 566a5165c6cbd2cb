// Network topology: edge-server / user deployment, coverage-based
// association, average per-link rates, and the end-to-end delivery latency
// model of the paper (Eqs. 4 and 5).
//
// Association follows the paper's coverage rule: M_k is the set of edge
// servers whose coverage disc (radius `coverage_radius_m`) contains user k.
// A server splits its total bandwidth B and transmit power P equally among
// the *expected active* associated users, i.e. each user receives
// B/(p_A·|K_m|) and P/(p_A·|K_m|) (§VII-A).
//
// Delivery latency for model payload D (bytes) from server m to user k:
//   * m ∈ M_k  (Eq. 4):  T = 8D / C̄_{m,k}
//   * m ∉ M_k  (Eq. 5):  T = min_{m' ∈ M_k} ( 8D / C_backhaul + 8D / C̄_{m',k} )
// On-device inference latency is added by the caller (core::PlacementProblem),
// because it is a property of the (user, model) pair, not of the link.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <stdexcept>
#include <vector>

#include "src/support/ids.h"
#include "src/support/units.h"
#include "src/wireless/channel.h"
#include "src/wireless/geometry.h"
#include "src/wireless/spatial_grid.h"

namespace trimcaching::wireless {

/// Radio/deployment parameters shared by all edge servers.
struct RadioConfig {
  double total_bandwidth_hz = 400e6;  ///< B = 400 MHz
  double total_power_w = 19.952623149688797;  ///< P = 43 dBm
  double coverage_radius_m = 275.0;
  double active_probability = 0.5;  ///< p_A
  double backhaul_bps = 10e9;       ///< C_{m,m'} = 10 Gbps
  ChannelParams channel{};

  void validate() const;
};

class NetworkTopology {
 public:
  /// Builds a topology from explicit positions. Capacities are per-server
  /// storage budgets Q_m in bytes.
  NetworkTopology(Area area, RadioConfig radio, std::vector<Point> server_positions,
                  std::vector<Point> user_positions,
                  std::vector<support::Bytes> capacities);

  [[nodiscard]] std::size_t num_servers() const noexcept { return server_pos_.size(); }
  [[nodiscard]] std::size_t num_users() const noexcept { return user_pos_.size(); }

  [[nodiscard]] const Area& area() const noexcept { return area_; }
  [[nodiscard]] const RadioConfig& radio() const noexcept { return radio_; }
  [[nodiscard]] const Point& server_position(ServerId m) const { return server_pos_.at(m); }
  [[nodiscard]] const Point& user_position(UserId k) const { return user_pos_.at(k); }
  [[nodiscard]] support::Bytes capacity(ServerId m) const { return capacities_.at(m); }

  /// Per-server inference compute capacity (abstract units/s). Unset (the
  /// default) means unlimited — the classic storage-only TrimCaching problem.
  [[nodiscard]] double compute_capacity(ServerId m) const {
    if (compute_capacities_.empty()) {
      if (m >= server_pos_.size()) throw std::out_of_range("NetworkTopology::compute_capacity");
      return std::numeric_limits<double>::infinity();
    }
    return compute_capacities_.at(m);
  }
  /// True when any server has a finite compute capacity.
  [[nodiscard]] bool compute_constrained() const noexcept {
    for (const double c : compute_capacities_) {
      if (c != std::numeric_limits<double>::infinity()) return true;
    }
    return false;
  }
  /// Installs per-server compute capacities (empty = unlimited). Values must
  /// be >= 0; +inf marks an individually unconstrained server.
  void set_compute_capacities(std::vector<double> capacities);

  // ---- Availability / degraded-rate view (fault re-scoring) ---------------
  //
  // A snapshot of a fault state (sim/fault_model.h): a *down* server's links
  // carry zero bandwidth/SNR/rate — it can neither deliver directly nor act
  // as the relay hop of another holder — and an up server's link SNR is
  // multiplied by its derating factor before the rate recomputes. The mask
  // is purely a delivery view: association stays geometric (a down server
  // keeps its members, so surviving shares do not redistribute) and the
  // placement is NOT masked here — callers scoring a placement under the
  // mask must also drop the models held by down servers, or a dead holder
  // could still source backhaul relays (see sim::score_under_outages).

  /// Installs the availability mask (empty = everything up) and optional
  /// per-server SNR derating factors in [0, 1] (empty = no derating). Sizes
  /// must match num_servers() when non-empty; NaN or out-of-range values
  /// throw std::invalid_argument. Recomputes the link views and bumps
  /// revision(), so cached plans refresh. With no mask and no derating the
  /// recomputed views are bit-identical to the unmasked topology.
  void set_availability(std::vector<char> up, std::vector<double> snr_derating = {});
  /// True when no mask is installed (every server up, no derating).
  [[nodiscard]] bool fully_available() const noexcept {
    return available_.empty() && snr_derating_.empty();
  }
  /// Server m is up under the current mask (true when no mask is set).
  [[nodiscard]] bool available(ServerId m) const {
    if (available_.empty()) {
      if (m >= server_pos_.size()) throw std::out_of_range("NetworkTopology::available");
      return true;
    }
    return available_.at(m) != 0;
  }

  /// Servers covering user k (the paper's M_k), ascending order.
  [[nodiscard]] const std::vector<ServerId>& servers_covering(UserId k) const {
    return covering_.at(k);
  }

  // ---- Flat association/gain views (CSR over users) -----------------------
  //
  // The evaluation engine (sim::EvalPlan) consumes the coverage structure as
  // contiguous arrays: user k's links occupy the span
  // [covering_offsets()[k], covering_offsets()[k+1]) of the *_flat vectors.
  // Per link the views carry the per-user bandwidth share, the mean SNR
  // (so a fading realization's rate is bw * log2(1 + snr * |h|^2)), and the
  // average rate C̄ (identical bits to avg_rate_bps).

  /// CSR offsets, size num_users() + 1.
  [[nodiscard]] const std::vector<std::size_t>& covering_offsets() const noexcept {
    return covering_offsets_;
  }
  /// Covering server ids, concatenated per user (ascending within a user).
  [[nodiscard]] const std::vector<ServerId>& covering_flat() const noexcept {
    return covering_flat_;
  }
  /// Per-link bandwidth share B̄ in Hz.
  [[nodiscard]] const std::vector<double>& link_bandwidth_hz() const noexcept {
    return link_bandwidth_hz_;
  }
  /// Per-link mean SNR (fading gain 1).
  [[nodiscard]] const std::vector<double>& link_mean_snr() const noexcept {
    return link_mean_snr_;
  }
  /// Per-link average rate C̄ in bit/s.
  [[nodiscard]] const std::vector<double>& link_avg_rate_bps() const noexcept {
    return link_avg_rate_;
  }

  /// Monotone counter bumped by every change of the link views
  /// (construction, update_user_positions, set_availability); plan caches
  /// compare it against their snapshot's to detect staleness.
  [[nodiscard]] std::uint64_t revision() const noexcept { return revision_; }
  /// Users associated with server m (the paper's K_m), ascending order.
  [[nodiscard]] const std::vector<UserId>& users_of(ServerId m) const {
    return associated_.at(m);
  }

  [[nodiscard]] bool is_associated(ServerId m, UserId k) const;

  /// Per-user bandwidth share B̄_{m,k} = B/(p_A·|K_m|); 0 if server m has no
  /// associated users.
  [[nodiscard]] double per_user_bandwidth_hz(ServerId m) const;
  /// Per-user power share P̄_{m,k} = P/(p_A·|K_m|); 0 if no associated users.
  [[nodiscard]] double per_user_power_w(ServerId m) const;

  /// Average downlink rate C̄_{m,k} (Eq. 1); 0 if m does not cover k.
  [[nodiscard]] double avg_rate_bps(ServerId m, UserId k) const;

  /// Downlink rate under an instantaneous fading power gain |h|^2.
  [[nodiscard]] double faded_rate_bps(ServerId m, UserId k, double fading_gain) const;

  /// Accessor giving the downlink rate (bit/s) of an associated (m, k) pair;
  /// used to re-evaluate delivery latency under per-realization fading.
  using RateFn = std::function<double(ServerId, UserId)>;

  /// Delivery latency (seconds, excluding inference) of a `payload`-byte
  /// model from server m to user k using average rates. Returns +inf if the
  /// user is covered by no server or all candidate links have zero rate.
  [[nodiscard]] double delivery_seconds(ServerId m, UserId k, support::Bytes payload) const;

  /// As above, but downlink rates are supplied by `rate_fn` (fading).
  [[nodiscard]] double delivery_seconds(ServerId m, UserId k, support::Bytes payload,
                                        const RateFn& rate_fn) const;

  /// Replaces the user positions (mobility) and recomputes association and
  /// average rates. The number of users must stay constant.
  void update_user_positions(std::vector<Point> user_positions);

  static constexpr double kInfiniteLatency = std::numeric_limits<double>::infinity();

 private:
  void rebuild();
  /// Recomputes the flat CSR link views from covering_, associated_ and the
  /// availability mask.
  void refresh_links();

  Area area_;
  RadioConfig radio_;
  std::vector<Point> server_pos_;
  std::vector<Point> user_pos_;
  std::vector<support::Bytes> capacities_;
  std::vector<double> compute_capacities_;  // empty = unlimited
  std::vector<char> available_;             // empty = all up
  std::vector<double> snr_derating_;        // empty = no derating

  std::vector<std::vector<ServerId>> covering_;    // per user
  std::vector<std::vector<UserId>> associated_;    // per server

  // Flat CSR mirrors of covering_ plus per-link channel constants. These are
  // the *only* rate storage: avg_rate_bps(m, k) binary-searches user k's
  // covering span, so memory stays O(links) instead of a dense M x K matrix
  // (the scale-out regime has M x K in the tens of millions).
  std::vector<std::size_t> covering_offsets_;      // size K + 1
  std::vector<ServerId> covering_flat_;
  std::vector<double> link_bandwidth_hz_;
  std::vector<double> link_mean_snr_;
  std::vector<double> link_avg_rate_;
  std::uint64_t revision_ = 0;

  // Servers never move, so the association grid is built once and reused by
  // every rebuild.
  std::optional<SpatialGrid> server_grid_;
};

/// Samples a topology with uniformly-placed servers and users and identical
/// per-server capacity, matching the paper's simulation setup.
[[nodiscard]] NetworkTopology sample_topology(const Area& area, const RadioConfig& radio,
                                              std::size_t num_servers,
                                              std::size_t num_users,
                                              support::Bytes capacity_per_server,
                                              support::Rng& rng);

}  // namespace trimcaching::wireless
