// 2-D points for intersection positions: the builder's default segment
// lengths and the router's straight-line A* bound.
#pragma once

#include <cmath>

namespace ivc::geom {

struct Vec2 {
  double x = 0.0;
  double y = 0.0;

  constexpr Vec2() = default;
  constexpr Vec2(double x_, double y_) : x(x_), y(y_) {}

  friend constexpr Vec2 operator+(Vec2 a, Vec2 b) { return {a.x + b.x, a.y + b.y}; }
  friend constexpr Vec2 operator-(Vec2 a, Vec2 b) { return {a.x - b.x, a.y - b.y}; }
  friend constexpr bool operator==(Vec2 a, Vec2 b) { return a.x == b.x && a.y == b.y; }

  [[nodiscard]] constexpr double length_sq() const { return x * x + y * y; }
  [[nodiscard]] double length() const { return std::sqrt(length_sq()); }
};

[[nodiscard]] inline double distance(Vec2 a, Vec2 b) { return (a - b).length(); }

}  // namespace ivc::geom
