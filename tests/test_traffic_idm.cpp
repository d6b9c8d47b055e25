// IDM car-following model properties.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "traffic/idm.hpp"

namespace ivc::traffic {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(Idm, AcceleratesFromRestOnFreeRoad) {
  IdmParams p;
  const double a = idm_acceleration(0.0, 10.0, kInf, 0.0, p, idm_braking_scale(p));
  EXPECT_NEAR(a, p.max_accel, 1e-9);
}

TEST(Idm, NoAccelerationAtDesiredSpeed) {
  IdmParams p;
  const double a = idm_acceleration(10.0, 10.0, kInf, 0.0, p, idm_braking_scale(p));
  EXPECT_NEAR(a, 0.0, 1e-9);
}

TEST(Idm, DeceleratesAboveDesiredSpeed) {
  IdmParams p;
  EXPECT_LT(idm_acceleration(12.0, 10.0, kInf, 0.0, p, idm_braking_scale(p)), 0.0);
}

TEST(Idm, BrakesHardForCloseObstacle) {
  IdmParams p;
  // Standing obstacle 5 m ahead at 10 m/s: braking must exceed comfortable.
  const double a = idm_acceleration(10.0, 10.0, 5.0, 10.0, p, idm_braking_scale(p));
  EXPECT_LT(a, -p.comfort_decel);
}

TEST(Idm, EquilibriumGapHoldsSpeed) {
  IdmParams p;
  const double v = 8.0;
  // At equilibrium, s* = gap; solve s* for dv=0 and confirm ~zero accel
  // modulo the free-road term at v < v0.
  const double v0 = 8.2;  // just above, so free term is small
  const double gap = (p.min_gap + v * p.headway) / std::sqrt(1.0 - std::pow(v / v0, 4.0));
  const double a = idm_acceleration(v, v0, gap, 0.0, p, idm_braking_scale(p));
  EXPECT_NEAR(a, 0.0, 0.05);
}

// Distance in units in the last place between two non-negative finite
// doubles (their bit patterns order like the values).
std::uint64_t ulp_distance(double a, double b) {
  std::uint64_t ia = 0;
  std::uint64_t ib = 0;
  std::memcpy(&ia, &a, sizeof a);
  std::memcpy(&ib, &b, sizeof b);
  return ia > ib ? ia - ib : ib - ia;
}

// The kernel computes (v/v0)^4 as two squarings; against libm's pow it may
// differ only by rounding, never by more than 2 ulp.
TEST(Idm, SpeedRatioPowerMatchesPowWithinTwoUlp) {
  const double v0 = 13.0;
  for (int i = 0; i <= 15000; ++i) {
    const double v = v0 * (static_cast<double>(i) / 10000.0);  // v/v0 in [0, 1.5]
    const double expected = std::pow(v / v0, 4.0);
    const double got = idm_speed_ratio4(v, v0);
    EXPECT_LE(ulp_distance(got, expected), 2u)
        << "v/v0=" << v / v0 << " got " << got << " pow " << expected;
  }
  // The free-road kernel is built on exactly that power.
  IdmParams p;
  EXPECT_EQ(idm_acceleration(7.0, v0, kInf, 0.0, p, idm_braking_scale(p)),
            p.max_accel * (1.0 - idm_speed_ratio4(7.0, v0)));
}

TEST(Idm, MonotoneInGap) {
  IdmParams p;
  double prev = -1e9;
  for (double gap = 2.0; gap < 100.0; gap += 2.0) {
    const double a = idm_acceleration(8.0, 10.0, gap, 0.0, p, idm_braking_scale(p));
    EXPECT_GE(a, prev);
    prev = a;
  }
}

TEST(Idm, ApproachingFasterLeaderEasesBraking) {
  IdmParams p;
  // Same gap; leader pulling away (dv < 0) should brake less than leader
  // closing in (dv > 0).
  const double closing = idm_acceleration(10.0, 12.0, 20.0, 5.0, p, idm_braking_scale(p));
  const double opening = idm_acceleration(10.0, 12.0, 20.0, -5.0, p, idm_braking_scale(p));
  EXPECT_LT(closing, opening);
}

TEST(Idm, TinyGapDoesNotOverflow) {
  IdmParams p;
  const double a = idm_acceleration(5.0, 10.0, 0.0, 5.0, p, idm_braking_scale(p));
  EXPECT_TRUE(std::isfinite(a));
  EXPECT_LT(a, -10.0);  // emergency braking, but finite
}

// Euler integration of a 10-car platoon behind a braking leader must stay
// collision-free — the property the engine relies on.
TEST(Idm, PlatoonRemainsCollisionFree) {
  IdmParams p;
  const double dt = 0.5;
  const int n = 10;
  const double car_len = 4.5;
  std::vector<double> pos(n), vel(n, 10.0);
  for (int i = 0; i < n; ++i) pos[i] = (n - 1 - i) * 20.0;  // pos[0] is the leader

  for (int step = 0; step < 400; ++step) {
    // Leader brakes to a stop and stays stopped.
    vel[0] = std::max(0.0, vel[0] - 3.0 * dt);
    pos[0] += vel[0] * dt;
    for (int i = 1; i < n; ++i) {
      const double gap = pos[i - 1] - car_len - pos[i];
      const double a =
          idm_acceleration(vel[i], 11.0, gap, vel[i] - vel[i - 1], p, idm_braking_scale(p));
      // Sequential update with overlap clamp, mirroring the engine.
      vel[i] = std::max(0.0, vel[i] + a * dt);
      pos[i] += vel[i] * dt;
      const double limit = pos[i - 1] - car_len - 0.1;
      if (pos[i] > limit) {
        pos[i] = limit;
        vel[i] = 0.0;
      }
    }
    for (int i = 1; i < n; ++i) {
      ASSERT_LE(pos[i], pos[i - 1] - car_len + 1e-9)
          << "collision at step " << step << " car " << i;
    }
  }
  // Everyone eventually stops in a jam behind the leader.
  for (int i = 0; i < n; ++i) EXPECT_NEAR(vel[i], 0.0, 0.2);
}

}  // namespace
}  // namespace ivc::traffic
