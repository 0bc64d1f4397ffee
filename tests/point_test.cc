#include "core/point.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

namespace diverse {
namespace {

TEST(PointTest, DenseConstruction) {
  Point p = Point::Dense({1.0f, 2.0f, 3.0f});
  EXPECT_FALSE(p.is_sparse());
  EXPECT_EQ(p.dim(), 3u);
  EXPECT_EQ(p.nnz(), 3u);
  EXPECT_DOUBLE_EQ(p.norm(), std::sqrt(14.0));
}

TEST(PointTest, Dense2And3Helpers) {
  Point p2 = Point::Dense2(3.0f, 4.0f);
  EXPECT_EQ(p2.dim(), 2u);
  EXPECT_DOUBLE_EQ(p2.norm(), 5.0);
  Point p3 = Point::Dense3(1.0f, 2.0f, 2.0f);
  EXPECT_EQ(p3.dim(), 3u);
  EXPECT_DOUBLE_EQ(p3.norm(), 3.0);
}

TEST(PointTest, SparseConstruction) {
  Point p = Point::Sparse({1, 5, 9}, {1.0f, 2.0f, 2.0f}, 10);
  EXPECT_TRUE(p.is_sparse());
  EXPECT_EQ(p.dim(), 10u);
  EXPECT_EQ(p.nnz(), 3u);
  EXPECT_DOUBLE_EQ(p.norm(), 3.0);
}

TEST(PointTest, EmptySparse) {
  Point p = Point::Sparse({}, {}, 4);
  EXPECT_EQ(p.nnz(), 0u);
  EXPECT_DOUBLE_EQ(p.norm(), 0.0);
}

TEST(PointTest, DenseDot) {
  Point a = Point::Dense({1.0f, 2.0f, 3.0f});
  Point b = Point::Dense({4.0f, -5.0f, 6.0f});
  EXPECT_DOUBLE_EQ(a.Dot(b), 4.0 - 10.0 + 18.0);
}

TEST(PointTest, SparseSparseDot) {
  Point a = Point::Sparse({0, 2, 4}, {1.0f, 2.0f, 3.0f}, 6);
  Point b = Point::Sparse({1, 2, 4}, {7.0f, 5.0f, 2.0f}, 6);
  // Common coordinates: 2 (2*5) and 4 (3*2).
  EXPECT_DOUBLE_EQ(a.Dot(b), 16.0);
}

TEST(PointTest, MixedDot) {
  Point sparse = Point::Sparse({0, 3}, {2.0f, 4.0f}, 4);
  Point dense = Point::Dense({1.0f, 1.0f, 1.0f, 0.5f});
  EXPECT_DOUBLE_EQ(sparse.Dot(dense), 2.0 + 2.0);
  EXPECT_DOUBLE_EQ(dense.Dot(sparse), 4.0);  // symmetric
}

TEST(PointTest, DotDisjointSupportsIsZero) {
  Point a = Point::Sparse({0, 1}, {1.0f, 1.0f}, 4);
  Point b = Point::Sparse({2, 3}, {1.0f, 1.0f}, 4);
  EXPECT_DOUBLE_EQ(a.Dot(b), 0.0);
}

TEST(PointTest, SquaredEuclideanDense) {
  Point a = Point::Dense({0.0f, 0.0f});
  Point b = Point::Dense({3.0f, 4.0f});
  EXPECT_DOUBLE_EQ(a.SquaredEuclideanDistanceTo(b), 25.0);
}

TEST(PointTest, SquaredEuclideanSparseMatchesDense) {
  Point sa = Point::Sparse({1, 3}, {2.0f, 5.0f}, 4);
  Point sb = Point::Sparse({0, 3}, {1.0f, 2.0f}, 4);
  Point da = Point::Dense({0.0f, 2.0f, 0.0f, 5.0f});
  Point db = Point::Dense({1.0f, 0.0f, 0.0f, 2.0f});
  EXPECT_NEAR(sa.SquaredEuclideanDistanceTo(sb),
              da.SquaredEuclideanDistanceTo(db), 1e-9);
  EXPECT_NEAR(sa.SquaredEuclideanDistanceTo(db),
              da.SquaredEuclideanDistanceTo(sb), 1e-9);
}

TEST(PointTest, SquaredEuclideanToSelfIsZero) {
  Point a = Point::Sparse({2, 7}, {1.5f, -2.5f}, 10);
  EXPECT_DOUBLE_EQ(a.SquaredEuclideanDistanceTo(a), 0.0);
}

TEST(PointTest, L1DistanceDense) {
  Point a = Point::Dense({1.0f, -2.0f});
  Point b = Point::Dense({4.0f, 2.0f});
  EXPECT_DOUBLE_EQ(a.L1DistanceTo(b), 3.0 + 4.0);
}

TEST(PointTest, L1DistanceSparse) {
  Point a = Point::Sparse({0, 2}, {1.0f, 3.0f}, 4);
  Point b = Point::Sparse({1, 2}, {2.0f, 1.0f}, 4);
  // |1-0| + |0-2| + |3-1| + |0-0| = 5.
  EXPECT_DOUBLE_EQ(a.L1DistanceTo(b), 5.0);
}

TEST(PointTest, L1DistanceMixed) {
  Point sparse = Point::Sparse({1}, {2.0f}, 3);
  Point dense = Point::Dense({1.0f, 1.0f, 1.0f});
  EXPECT_DOUBLE_EQ(sparse.L1DistanceTo(dense), 1.0 + 1.0 + 1.0);
  EXPECT_DOUBLE_EQ(dense.L1DistanceTo(sparse), 3.0);
}

TEST(PointTest, SupportJaccard) {
  Point a = Point::Sparse({0, 1, 2}, {1.0f, 1.0f, 1.0f}, 8);
  Point b = Point::Sparse({1, 2, 3}, {5.0f, 5.0f, 5.0f}, 8);
  // Intersection 2, union 4.
  EXPECT_DOUBLE_EQ(a.SupportJaccardDistanceTo(b), 0.5);
}

TEST(PointTest, SupportJaccardIdentical) {
  Point a = Point::Sparse({3, 4}, {1.0f, 2.0f}, 8);
  EXPECT_DOUBLE_EQ(a.SupportJaccardDistanceTo(a), 0.0);
}

TEST(PointTest, SupportJaccardDisjoint) {
  Point a = Point::Sparse({0}, {1.0f}, 8);
  Point b = Point::Sparse({7}, {1.0f}, 8);
  EXPECT_DOUBLE_EQ(a.SupportJaccardDistanceTo(b), 1.0);
}

TEST(PointTest, SupportJaccardDenseIgnoresZeros) {
  Point a = Point::Dense({1.0f, 0.0f, 2.0f});
  Point b = Point::Dense({1.0f, 3.0f, 0.0f});
  // Supports {0,2} and {0,1}: intersection 1, union 3.
  EXPECT_NEAR(a.SupportJaccardDistanceTo(b), 2.0 / 3.0, 1e-12);
}

TEST(PointTest, EqualityAndInequality) {
  Point a = Point::Dense({1.0f, 2.0f});
  Point b = Point::Dense({1.0f, 2.0f});
  Point c = Point::Dense({1.0f, 2.5f});
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
  Point s = Point::Sparse({0, 1}, {1.0f, 2.0f}, 2);
  EXPECT_FALSE(a == s);  // different representation
}

TEST(PointTest, ToStringRenders) {
  EXPECT_EQ(Point::Dense({1.0f, 2.5f}).ToString(), "(1, 2.5)");
  EXPECT_EQ(Point::Sparse({3}, {1.0f}, 5).ToString(), "sparse{3:1 | dim=5}");
}

TEST(PointTest, MemoryBytesIsPositiveAndGrowsWithSize) {
  Point small = Point::Dense({1.0f});
  Point big = Point::Dense(std::vector<float>(100, 1.0f));
  EXPECT_GT(small.MemoryBytes(), 0u);
  EXPECT_GT(big.MemoryBytes(), small.MemoryBytes());
}

TEST(PointTest, AssignCopiesTheViewedPointInEitherRepresentation) {
  const Point dense = Point::Dense({1.0f, -2.0f, 3.5f});
  const Point sparse = Point::Sparse({1, 4}, {2.5f, 0.0f}, 6);
  const Point empty_sparse = Point::Sparse({}, {}, 4);
  Point p;
  for (const Point* src : {&sparse, &dense, &empty_sparse, &sparse}) {
    p.Assign(src->View());
    EXPECT_EQ(p, *src);
    EXPECT_EQ(p.is_sparse(), src->is_sparse());
    EXPECT_EQ(p.dim(), src->dim());
    EXPECT_EQ(p.norm(), src->norm());
  }
}

TEST(PointDeathTest, SparseRequiresSortedIndices) {
  EXPECT_DEATH(Point::Sparse({2, 1}, {1.0f, 1.0f}, 4), "CHECK failed");
}

TEST(PointDeathTest, SparseRequiresIndicesInRange) {
  EXPECT_DEATH(Point::Sparse({5}, {1.0f}, 4), "CHECK failed");
}

TEST(PointDeathTest, DotRequiresMatchingDims) {
  Point a = Point::Dense({1.0f});
  Point b = Point::Dense({1.0f, 2.0f});
  EXPECT_DEATH(a.Dot(b), "CHECK failed");
}

}  // namespace
}  // namespace diverse
