#include "src/mobility/mobility.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace trimcaching::mobility {

MobilityParams params_for(MobilityClass cls) {
  switch (cls) {
    case MobilityClass::kPedestrian:
      return MobilityParams{0.5, 1.8, 0.3, std::numbers::pi / 4.0};
    case MobilityClass::kBike:
      return MobilityParams{2.0, 8.0, 1.0, std::numbers::pi / 3.0};
    case MobilityClass::kVehicle:
      return MobilityParams{5.5, 20.0, 3.0, std::numbers::pi / 2.0};
  }
  throw std::invalid_argument("params_for: unknown mobility class");
}

MobilityModel::MobilityModel(wireless::Area area,
                             std::vector<wireless::Point> initial_positions,
                             std::vector<MobilityClass> classes, support::Rng& rng)
    : area_(area) {
  if (initial_positions.size() != classes.size()) {
    throw std::invalid_argument("MobilityModel: positions/classes size mismatch");
  }
  users_.reserve(initial_positions.size());
  for (std::size_t k = 0; k < initial_positions.size(); ++k) {
    const MobilityParams params = params_for(classes[k]);
    UserKinematics user;
    user.position = area_.clamp(initial_positions[k]);
    user.speed_mps = rng.uniform(params.min_speed_mps, params.max_speed_mps);
    user.heading_rad = rng.uniform(0.0, std::numbers::pi);
    user.cls = classes[k];
    users_.push_back(user);
  }
}

void MobilityModel::step(double dt_seconds, support::Rng& rng) {
  if (!std::isfinite(dt_seconds) || dt_seconds <= 0) {
    throw std::invalid_argument("MobilityModel::step: dt must be finite and > 0");
  }
  for (UserKinematics& user : users_) {
    const MobilityParams params = params_for(user.cls);
    const double accel = rng.uniform(-params.max_accel_mps2, params.max_accel_mps2);
    const double omega =
        rng.uniform(-params.max_angular_rate_rps, params.max_angular_rate_rps);
    user.speed_mps = std::clamp(user.speed_mps + accel * dt_seconds,
                                params.min_speed_mps, params.max_speed_mps);
    user.heading_rad += omega * dt_seconds;
    double x = user.position.x + user.speed_mps * dt_seconds * std::cos(user.heading_rad);
    double y = user.position.y + user.speed_mps * dt_seconds * std::sin(user.heading_rad);
    // Bounce: reflect the overshoot and the heading component.
    if (x < 0.0 || x > area_.side_m) {
      x = std::clamp(x < 0.0 ? -x : 2.0 * area_.side_m - x, 0.0, area_.side_m);
      user.heading_rad = std::numbers::pi - user.heading_rad;
    }
    if (y < 0.0 || y > area_.side_m) {
      y = std::clamp(y < 0.0 ? -y : 2.0 * area_.side_m - y, 0.0, area_.side_m);
      user.heading_rad = -user.heading_rad;
    }
    user.position = wireless::Point{x, y};
  }
}

std::vector<wireless::Point> MobilityModel::positions() const {
  std::vector<wireless::Point> out;
  out.reserve(users_.size());
  for (const UserKinematics& user : users_) out.push_back(user.position);
  return out;
}

std::vector<MobilityClass> assign_classes(std::size_t n, double pedestrian_fraction,
                                          double bike_fraction, double vehicle_fraction,
                                          support::Rng& rng) {
  for (const double fraction : {pedestrian_fraction, bike_fraction, vehicle_fraction}) {
    if (!std::isfinite(fraction) || fraction < 0) {
      throw std::invalid_argument("assign_classes: fractions must be finite and >= 0");
    }
  }
  const double total = pedestrian_fraction + bike_fraction + vehicle_fraction;
  if (total <= 0) throw std::invalid_argument("assign_classes: non-positive fractions");
  std::vector<MobilityClass> classes;
  classes.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    const double roll = rng.uniform(0.0, total);
    if (roll < pedestrian_fraction) {
      classes.push_back(MobilityClass::kPedestrian);
    } else if (roll < pedestrian_fraction + bike_fraction) {
      classes.push_back(MobilityClass::kBike);
    } else {
      classes.push_back(MobilityClass::kVehicle);
    }
  }
  return classes;
}

}  // namespace trimcaching::mobility
