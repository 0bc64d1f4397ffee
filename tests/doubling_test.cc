#include "core/doubling.h"

#include <cmath>

#include <gtest/gtest.h>

#include "core/metric.h"
#include "data/sparse_text.h"
#include "data/synthetic.h"

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

TEST(DoublingDeathTest, RequiresTwoPoints) {
  PointSet pts = {Point::Dense2(0, 0)};
  EuclideanMetric m;
  EXPECT_DEATH(EstimateDoublingDimension(pts, m), "CHECK failed");
}

}  // namespace
}  // namespace diverse
