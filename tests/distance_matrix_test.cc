#include "core/distance_matrix.h"

#include <gtest/gtest.h>

#include "core/metric.h"

namespace diverse {
namespace {

TEST(DistanceMatrixTest, ZeroInitialized) {
  DistanceMatrix d(3);
  EXPECT_EQ(d.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j < 3; ++j) EXPECT_DOUBLE_EQ(d.at(i, j), 0.0);
  }
}

TEST(DistanceMatrixTest, SetIsSymmetric) {
  DistanceMatrix d(2);
  d.set(0, 1, 5.0);
  EXPECT_DOUBLE_EQ(d.at(0, 1), 5.0);
  EXPECT_DOUBLE_EQ(d.at(1, 0), 5.0);
}

TEST(DistanceMatrixTest, FromPoints) {
  EuclideanMetric m;
  PointSet pts = {Point::Dense2(0, 0), Point::Dense2(3, 4),
                  Point::Dense2(0, 8)};
  DistanceMatrix d(pts, m);
  EXPECT_DOUBLE_EQ(d.at(0, 1), 5.0);
  EXPECT_DOUBLE_EQ(d.at(0, 2), 8.0);
  EXPECT_DOUBLE_EQ(d.at(1, 2), 5.0);
  EXPECT_DOUBLE_EQ(d.at(2, 2), 0.0);
}

TEST(DistanceMatrixTest, Restrict) {
  DistanceMatrix d(4);
  d.set(1, 3, 2.5);
  d.set(1, 2, 1.0);
  std::vector<size_t> subset = {1, 3};
  DistanceMatrix r = d.Restrict(subset);
  EXPECT_EQ(r.size(), 2u);
  EXPECT_DOUBLE_EQ(r.at(0, 1), 2.5);
}

TEST(DistanceMatrixDeathTest, SetRejectsNegative) {
  DistanceMatrix d(2);
  EXPECT_DEATH(d.set(0, 1, -1.0), "CHECK failed");
}

TEST(DistanceMatrixDeathTest, SetRejectsOutOfRange) {
  DistanceMatrix d(2);
  EXPECT_DEATH(d.set(0, 2, 1.0), "CHECK failed");
}

}  // namespace
}  // namespace diverse
