#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "src/mobility/mobility.h"

namespace trimcaching::mobility {
namespace {

using support::Rng;
using wireless::Area;
using wireless::Point;

TEST(MobilityParams, PaperValues) {
  const auto ped = params_for(MobilityClass::kPedestrian);
  EXPECT_DOUBLE_EQ(ped.min_speed_mps, 0.5);
  EXPECT_DOUBLE_EQ(ped.max_speed_mps, 1.8);
  EXPECT_DOUBLE_EQ(ped.max_accel_mps2, 0.3);
  const auto bike = params_for(MobilityClass::kBike);
  EXPECT_DOUBLE_EQ(bike.min_speed_mps, 2.0);
  EXPECT_DOUBLE_EQ(bike.max_speed_mps, 8.0);
  const auto veh = params_for(MobilityClass::kVehicle);
  EXPECT_DOUBLE_EQ(veh.max_speed_mps, 20.0);
  EXPECT_DOUBLE_EQ(veh.max_accel_mps2, 3.0);
}

TEST(MobilityModel, UsersStayInsideArea) {
  Rng rng(1);
  const Area area{1000.0};
  std::vector<Point> initial(20, Point{500, 500});
  std::vector<MobilityClass> classes =
      assign_classes(20, 1.0 / 3, 1.0 / 3, 1.0 / 3, rng);
  MobilityModel model(area, initial, classes, rng);
  for (int slot = 0; slot < 500; ++slot) {
    model.step(5.0, rng);
    for (const auto& p : model.positions()) {
      EXPECT_TRUE(area.contains(p)) << "(" << p.x << "," << p.y << ")";
    }
  }
}

TEST(MobilityModel, SpeedsStayInClassRange) {
  Rng rng(2);
  const Area area{1000.0};
  std::vector<Point> initial(10, Point{500, 500});
  std::vector<MobilityClass> classes(10, MobilityClass::kVehicle);
  MobilityModel model(area, initial, classes, rng);
  for (int slot = 0; slot < 200; ++slot) {
    model.step(5.0, rng);
    for (const auto& user : model.users()) {
      EXPECT_GE(user.speed_mps, 5.5);
      EXPECT_LE(user.speed_mps, 20.0);
    }
  }
}

TEST(MobilityModel, UsersActuallyMove) {
  Rng rng(3);
  const Area area{1000.0};
  std::vector<Point> initial(5, Point{500, 500});
  std::vector<MobilityClass> classes(5, MobilityClass::kPedestrian);
  MobilityModel model(area, initial, classes, rng);
  model.step(5.0, rng);
  for (const auto& p : model.positions()) {
    EXPECT_GT(wireless::distance(p, Point{500, 500}), 0.0);
    // A pedestrian covers at most 1.8 m/s * 5 s = 9 m per slot.
    EXPECT_LE(wireless::distance(p, Point{500, 500}), 9.0 + 1e-9);
  }
}

TEST(MobilityModel, VehiclesCoverMoreGroundThanPedestrians) {
  Rng rng(4);
  const Area area{100000.0};  // huge area: no boundary interference
  std::vector<Point> start(40, Point{50000, 50000});
  std::vector<MobilityClass> classes(40, MobilityClass::kPedestrian);
  for (std::size_t i = 20; i < 40; ++i) classes[i] = MobilityClass::kVehicle;
  MobilityModel model(area, start, classes, rng);
  for (int slot = 0; slot < 100; ++slot) model.step(5.0, rng);
  double ped = 0, veh = 0;
  const auto& users = model.users();
  for (std::size_t i = 0; i < 20; ++i) {
    ped += wireless::distance(users[i].position, Point{50000, 50000});
  }
  for (std::size_t i = 20; i < 40; ++i) {
    veh += wireless::distance(users[i].position, Point{50000, 50000});
  }
  EXPECT_GT(veh, ped);
}

TEST(MobilityModel, Deterministic) {
  const Area area{1000.0};
  std::vector<Point> initial(5, Point{100, 100});
  std::vector<MobilityClass> classes(5, MobilityClass::kBike);
  Rng rng_a(7), rng_b(7);
  MobilityModel a(area, initial, classes, rng_a);
  MobilityModel b(area, initial, classes, rng_b);
  for (int slot = 0; slot < 20; ++slot) {
    a.step(5.0, rng_a);
    b.step(5.0, rng_b);
  }
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(a.positions()[i].x, b.positions()[i].x);
    EXPECT_DOUBLE_EQ(a.positions()[i].y, b.positions()[i].y);
  }
}

TEST(MobilityModel, InputValidation) {
  Rng rng(8);
  const Area area{100.0};
  EXPECT_THROW(MobilityModel(area, {Point{1, 1}}, {}, rng), std::invalid_argument);
  MobilityModel model(area, {Point{1, 1}}, {MobilityClass::kBike}, rng);
  EXPECT_THROW(model.step(0.0, rng), std::invalid_argument);
  EXPECT_THROW((void)assign_classes(5, 0, 0, 0, rng), std::invalid_argument);
}

TEST(MobilityModel, StepRejectsNonFiniteDt) {
  // A NaN or infinite slot would integrate every position to NaN or the
  // area boundary without any error.
  Rng rng(10);
  MobilityModel model(Area{100.0}, {Point{1, 1}}, {MobilityClass::kBike}, rng);
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {inf, -inf, std::numeric_limits<double>::quiet_NaN(), -1.0}) {
    EXPECT_THROW(model.step(bad, rng), std::invalid_argument) << bad;
  }
  EXPECT_EQ(model.positions()[0].x, 1.0);  // nothing moved
}

TEST(AssignClasses, RejectsEachNonFiniteOrNegativeFraction) {
  // The total alone is not enough: one negative fraction next to positive
  // ones still sums above 0.
  Rng rng(11);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {-0.5, nan, inf, -inf}) {
    EXPECT_THROW((void)assign_classes(5, bad, 1, 1, rng), std::invalid_argument) << bad;
    EXPECT_THROW((void)assign_classes(5, 1, bad, 1, rng), std::invalid_argument) << bad;
    EXPECT_THROW((void)assign_classes(5, 1, 1, bad, rng), std::invalid_argument) << bad;
  }
}

TEST(AssignClasses, RespectsPureMixes) {
  Rng rng(9);
  const auto all_ped = assign_classes(30, 1, 0, 0, rng);
  for (const auto cls : all_ped) EXPECT_EQ(cls, MobilityClass::kPedestrian);
  const auto all_veh = assign_classes(30, 0, 0, 1, rng);
  for (const auto cls : all_veh) EXPECT_EQ(cls, MobilityClass::kVehicle);
}

}  // namespace
}  // namespace trimcaching::mobility
