#include "core/doubling.h"

#include <cmath>

#include <gtest/gtest.h>

#include "core/cover_tree.h"
#include "core/metric.h"
#include "data/sparse_text.h"
#include "data/synthetic.h"
#include "util/rng.h"

namespace diverse {
namespace {

TEST(DoublingTest, LineHasLowDimension) {
  // Points on a line: doubling dimension 1.
  PointSet pts;
  for (int i = 0; i < 500; ++i) {
    pts.push_back(Point::Dense({static_cast<float>(i) * 0.01f}));
  }
  EuclideanMetric m;
  DoublingEstimate est = EstimateDoublingDimension(pts, m);
  EXPECT_GT(est.probes, 0u);
  EXPECT_GE(est.dimension, 0.5);
  EXPECT_LE(est.dimension, 2.5);
}

TEST(DoublingTest, PlaneExceedsLine) {
  EuclideanMetric m;
  PointSet line;
  for (int i = 0; i < 400; ++i) {
    line.push_back(Point::Dense({static_cast<float>(i) * 0.01f}));
  }
  PointSet plane = GenerateUniformCube(400, 2, /*seed=*/2);
  DoublingEstimateOptions opts;
  opts.seed = 3;
  double d_line = EstimateDoublingDimension(line, m, opts).dimension;
  double d_plane = EstimateDoublingDimension(plane, m, opts).dimension;
  EXPECT_GT(d_plane, d_line);
}

TEST(DoublingTest, DimensionGrowsWithEuclideanDim) {
  EuclideanMetric m;
  DoublingEstimateOptions opts;
  opts.seed = 4;
  double d2 = EstimateDoublingDimension(GenerateUniformCube(600, 2, 5), m,
                                        opts)
                  .dimension;
  double d6 = EstimateDoublingDimension(GenerateUniformCube(600, 6, 6), m,
                                        opts)
                  .dimension;
  EXPECT_GT(d6, d2);
}

TEST(DoublingTest, EstimateIsBoundedBySampleSizeLog) {
  // The cover can never exceed the ball size, so the estimate is at most
  // log2(sample size).
  EuclideanMetric m;
  PointSet pts = GenerateUniformCube(300, 3, /*seed=*/7);
  DoublingEstimate est = EstimateDoublingDimension(pts, m);
  EXPECT_LE(est.dimension, std::log2(300.0) + 1e-9);
}

TEST(DoublingTest, WorksOnSparseCosineData) {
  CosineMetric m;
  SparseTextOptions opts;
  opts.n = 300;
  opts.vocab_size = 400;
  opts.num_topics = 8;
  opts.seed = 8;
  PointSet docs = GenerateSparseTextDataset(opts);
  DoublingEstimate est = EstimateDoublingDimension(docs, m);
  EXPECT_GT(est.probes, 0u);
  EXPECT_GT(est.dimension, 0.0);
}

TEST(DoublingTest, DuplicatePointsHandled) {
  PointSet pts(50, Point::Dense2(1.0f, 2.0f));
  pts.push_back(Point::Dense2(3.0f, 4.0f));
  EuclideanMetric m;
  DoublingEstimate est = EstimateDoublingDimension(pts, m);
  // Balls of identical points are covered by one center.
  EXPECT_LE(est.dimension, 1.1);
}

// The tree-side estimator (no extra distance evaluations — it reads the
// half-radius frontiers the build already materialized) agrees with the
// sampling estimator on synthetic low-dimensional manifolds: both call the
// manifolds low, both order them by intrinsic dimension, and the tree
// estimate stays within a couple of bits of the sampled one even when the
// manifold is embedded in a higher-dimensional ambient space.
TEST(DoublingTest, TreeEstimatorAgreesWithSamplingOnManifolds) {
  EuclideanMetric m;
  DoublingEstimateOptions opts;
  opts.seed = 9;
  // Intrinsic dim 1 (a line in 8-dim ambient space) and intrinsic dim 2
  // (a plane patch in the same ambient space).
  PointSet line, plane;
  Rng rng(11);
  for (int i = 0; i < 1500; ++i) {
    float t = static_cast<float>(i) * 0.001f;
    line.push_back(Point::Dense({t, 2 * t, 0, t, 0, 3 * t, t, 0}));
    float u = static_cast<float>(rng.NextDouble());
    float v = static_cast<float>(rng.NextDouble());
    plane.push_back(Point::Dense({u, v, u + v, 0, u - v, 0, 2 * u, v}));
  }
  auto tree_dim = [&](const PointSet& pts) {
    CoverTree tree = CoverTree::Build(Dataset(pts), m);
    DoublingEstimate est = EstimateDoublingDimensionFromTree(tree);
    EXPECT_GT(est.probes, 0u);
    return est.dimension;
  };
  double tree_line = tree_dim(line);
  double tree_plane = tree_dim(plane);
  double samp_line = EstimateDoublingDimension(line, m, opts).dimension;
  double samp_plane = EstimateDoublingDimension(plane, m, opts).dimension;
  // Both estimators call the manifolds low-dimensional and order them.
  EXPECT_LE(tree_line, 3.0);
  EXPECT_LE(samp_line, 3.0);
  EXPECT_LT(tree_line, tree_plane);
  EXPECT_LT(samp_line, samp_plane);
  // Agreement within two bits on each manifold.
  EXPECT_NEAR(tree_line, samp_line, 2.0);
  EXPECT_NEAR(tree_plane, samp_plane, 2.0);
}

TEST(DoublingDeathTest, RequiresTwoPoints) {
  PointSet pts = {Point::Dense2(0, 0)};
  EuclideanMetric m;
  EXPECT_DEATH(EstimateDoublingDimension(pts, m), "CHECK failed");
}

}  // namespace
}  // namespace diverse
