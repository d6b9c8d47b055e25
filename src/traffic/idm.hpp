// Intelligent Driver Model (Treiber et al.) car-following.
//
// Substitute for SUMO's default Krauss model: both are collision-free
// single-lane followers; IDM is smooth under a plain Euler update, which is
// what the engine uses at dt = 0.5 s.
#pragma once

#include <algorithm>
#include <cmath>

namespace ivc::traffic {

// The acceleration exponent delta is not a parameter: it is fixed at 4,
// the value of Treiber et al.'s reference set (see idm_speed_ratio4).
struct IdmParams {
  double max_accel = 1.8;     // a: maximum acceleration (m/s^2)
  double comfort_decel = 2.5; // b: comfortable braking deceleration (m/s^2)
  double headway = 1.1;       // T: desired time headway (s)
  double min_gap = 2.0;       // s0: standstill jam distance (m)
};

// 2*sqrt(a*b), the denominator of the braking term of the desired gap s*.
// Hot loops compute it once per parameter set and pass it in.
[[nodiscard]] inline double idm_braking_scale(const IdmParams& p) {
  return 2.0 * std::sqrt(p.max_accel * p.comfort_decel);
}

// (v/v0)^delta for delta = 4: two squarings, no libm pow.
[[nodiscard]] inline double idm_speed_ratio4(double v, double v0) {
  const double r = std::max(v, 0.0) / std::max(v0, 0.1);
  const double r2 = r * r;
  return r2 * r2;
}

// Acceleration for a vehicle at speed v with desired speed v0, following a
// leader at relative speed dv = v - v_leader across a (bumper-to-bumper)
// gap. Pass gap = +inf for free road. `braking_scale` must be
// idm_braking_scale(p).
[[nodiscard]] inline double idm_acceleration(double v, double v0, double gap, double dv,
                                             const IdmParams& p, double braking_scale) {
  const double free_term = 1.0 - idm_speed_ratio4(v, v0);
  if (!std::isfinite(gap)) return p.max_accel * free_term;
  const double s_star = p.min_gap + std::max(0.0, v * p.headway + v * dv / braking_scale);
  const double interaction = s_star / std::max(gap, 0.1);
  return p.max_accel * (free_term - interaction * interaction);
}

}  // namespace ivc::traffic
