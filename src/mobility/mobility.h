// User mobility (§VII-E, Fig. 7).
//
// Three mobility classes with the paper's kinematic parameters; at the
// beginning of every slot (5 s) each user redraws an acceleration and an
// angular velocity, then integrates speed/heading/position for the slot.
// Speeds are clamped to the class's initial-speed range (the paper leaves
// the clamp unspecified; documented in EXPERIMENTS.md) and users bounce off
// the deployment-area boundary.
#pragma once

#include <vector>

#include "src/support/rng.h"
#include "src/wireless/geometry.h"

namespace trimcaching::mobility {

enum class MobilityClass { kPedestrian, kBike, kVehicle };

struct MobilityParams {
  double min_speed_mps = 0.0;
  double max_speed_mps = 0.0;
  double max_accel_mps2 = 0.0;        ///< a ~ U[-max, max] per slot
  double max_angular_rate_rps = 0.0;  ///< ω ~ U[-max, max] per slot (rad/s)
};

/// The paper's parameters: pedestrians [0.5,1.8] m/s, ±0.3 m/s², ±π/4 rad/s;
/// bikes [2,8] m/s, ±1 m/s², ±π/3 rad/s; vehicles [5.5,20] m/s, ±3 m/s²,
/// ±π/2 rad/s.
[[nodiscard]] MobilityParams params_for(MobilityClass cls);

struct UserKinematics {
  wireless::Point position{};
  double speed_mps = 0.0;
  double heading_rad = 0.0;
  MobilityClass cls = MobilityClass::kPedestrian;
};

class MobilityModel {
 public:
  /// Users start at `initial_positions` with class-specific random speeds
  /// and headings drawn from U[0, π] (paper's initialization).
  MobilityModel(wireless::Area area, std::vector<wireless::Point> initial_positions,
                std::vector<MobilityClass> classes, support::Rng& rng);

  /// Advances one slot of `dt_seconds`: redraw acceleration and angular
  /// rate, integrate, clamp speed, bounce at the boundary. A dt that is not
  /// finite and > 0 throws std::invalid_argument.
  void step(double dt_seconds, support::Rng& rng);

  [[nodiscard]] std::vector<wireless::Point> positions() const;

  [[nodiscard]] const std::vector<UserKinematics>& users() const noexcept {
    return users_;
  }

 private:
  wireless::Area area_;
  std::vector<UserKinematics> users_;
};

/// Assigns mobility classes to `n` users with the given mix (fractions are
/// normalized). Each fraction must be finite and >= 0 and their sum > 0, or
/// std::invalid_argument is thrown.
[[nodiscard]] std::vector<MobilityClass> assign_classes(std::size_t n,
                                                        double pedestrian_fraction,
                                                        double bike_fraction,
                                                        double vehicle_fraction,
                                                        support::Rng& rng);

}  // namespace trimcaching::mobility
