// Vec2 geometry.
#include <gtest/gtest.h>

#include "geom/vec2.hpp"

namespace ivc::geom {
namespace {

TEST(Vec2, Arithmetic) {
  const Vec2 a{1, 2}, b{3, -1};
  EXPECT_EQ(a + b, (Vec2{4, 1}));
  EXPECT_EQ(a - b, (Vec2{-2, 3}));
}

TEST(Vec2, Length) {
  const Vec2 a{3, 4};
  EXPECT_DOUBLE_EQ(a.length(), 5.0);
  EXPECT_DOUBLE_EQ(a.length_sq(), 25.0);
}

TEST(Vec2, Distance) {
  EXPECT_DOUBLE_EQ(distance({0, 0}, {3, 4}), 5.0);
}

}  // namespace
}  // namespace ivc::geom
