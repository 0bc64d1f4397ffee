#include "core/gmm.h"

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/dataset.h"
#include "core/distance_matrix.h"
#include "core/exact.h"
#include "core/metric.h"
#include "data/sparse_text.h"
#include "data/synthetic.h"
#include "gmm_scalar.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace diverse {
namespace {

TEST(GmmTest, SelectsRequestedCount) {
  EuclideanMetric m;
  PointSet pts = GenerateUniformCube(50, 2, /*seed=*/1);
  GmmResult r = Gmm(Dataset(pts), m, 7);
  EXPECT_EQ(r.selected.size(), 7u);
  std::set<size_t> unique(r.selected.begin(), r.selected.end());
  EXPECT_EQ(unique.size(), 7u);
}

TEST(GmmTest, FirstPointIsStart) {
  EuclideanMetric m;
  PointSet pts = GenerateUniformCube(20, 2, /*seed=*/2);
  GmmResult r = Gmm(Dataset(pts), m, 3, /*first=*/5);
  EXPECT_EQ(r.selected[0], 5u);
}

TEST(GmmTest, SelectionDistancesNonIncreasing) {
  EuclideanMetric m;
  PointSet pts = GenerateUniformCube(100, 3, /*seed=*/3);
  GmmResult r = Gmm(Dataset(pts), m, 20);
  for (size_t j = 2; j < r.selection_distance.size(); ++j) {
    EXPECT_LE(r.selection_distance[j], r.selection_distance[j - 1] + 1e-12);
  }
}

TEST(GmmTest, RangeMatchesDirectComputation) {
  EuclideanMetric m;
  PointSet pts = GenerateUniformCube(60, 2, /*seed=*/4);
  GmmResult r = Gmm(Dataset(pts), m, 8);
  double range = 0.0;
  for (const Point& p : pts) {
    double dist = 1e100;
    for (size_t c : r.selected) {
      dist = std::min(dist, m.Distance(p, pts[c]));
    }
    range = std::max(range, dist);
  }
  EXPECT_NEAR(r.range, range, 1e-12);
}

TEST(GmmTest, AssignmentIsNearestCenterWithEarliestTieBreak) {
  EuclideanMetric m;
  PointSet pts = GenerateUniformCube(40, 2, /*seed=*/5);
  GmmResult r = Gmm(Dataset(pts), m, 6);
  for (size_t i = 0; i < pts.size(); ++i) {
    double best = 1e100;
    size_t best_j = 0;
    for (size_t j = 0; j < r.selected.size(); ++j) {
      double dist = m.Distance(pts[i], pts[r.selected[j]]);
      if (dist < best - 1e-15) {
        best = dist;
        best_j = j;
      }
    }
    EXPECT_EQ(r.assignment[i], best_j) << "point " << i;
    EXPECT_NEAR(r.distance_to_selected[i], best, 1e-12);
  }
}

// Anticover property (basis of Fact 1): the range of the selected set is at
// most its farness: r_T <= rho_T.
TEST(GmmTest, AnticoverProperty) {
  EuclideanMetric m;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    PointSet pts = GenerateUniformCube(50, 2, seed);
    GmmResult r = Gmm(Dataset(pts), m, 5);
    double rho = Farness(pts, m, r.selected);
    EXPECT_LE(r.range, rho + 1e-9) << "seed " << seed;
  }
}

// GMM is a 2-approximation for the k-center problem: r_T <= 2 r*_k.
TEST(GmmTest, RangeWithinTwiceOptimalRange) {
  EuclideanMetric m;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    PointSet pts = GenerateUniformCube(14, 2, seed * 13);
    DistanceMatrix d(pts, m);
    for (size_t k = 2; k <= 5; ++k) {
      GmmResult r = Gmm(Dataset(pts), m, k);
      double opt = ExactOptimalRange(d, k);
      EXPECT_LE(r.range, 2.0 * opt + 1e-9)
          << "seed " << seed << " k " << k;
    }
  }
}

// GMM's k-prefix is a 2-approximation for remote-edge: rho_T >= rho*_k / 2.
TEST(GmmTest, RemoteEdgeTwoApproximation) {
  EuclideanMetric m;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    PointSet pts = GenerateUniformCube(14, 2, seed * 7);
    DistanceMatrix d(pts, m);
    for (size_t k = 2; k <= 5; ++k) {
      GmmResult r = Gmm(Dataset(pts), m, k);
      double rho = Farness(pts, m, r.selected);
      double opt = ExactOptimalFarness(d, k);
      EXPECT_GE(rho, opt / 2.0 - 1e-9) << "seed " << seed << " k " << k;
    }
  }
}

// Fact 1: r*_k <= rho*_k.
TEST(GmmTest, Fact1OptimalRangeAtMostOptimalFarness) {
  EuclideanMetric m;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    PointSet pts = GenerateUniformCube(12, 2, seed * 31);
    DistanceMatrix d(pts, m);
    for (size_t k = 2; k <= 5; ++k) {
      EXPECT_LE(ExactOptimalRange(d, k), ExactOptimalFarness(d, k) + 1e-12)
          << "seed " << seed << " k " << k;
    }
  }
}

TEST(GmmTest, PlantedSphereRecoversFarPoints) {
  // The k planted surface points are pairwise far; GMM with k' = k must
  // achieve farness comparable to the planted separation.
  EuclideanMetric m;
  SphereDatasetOptions opts;
  opts.n = 2000;
  opts.k = 8;
  opts.seed = 123;
  PointSet pts = GenerateSphereDataset(opts);
  GmmResult r = Gmm(Dataset(pts), m, opts.k);
  // Every selected point should be (nearly) on the outer shell: the planted
  // points dominate all inner points in farthest-first order.
  double planted_farness = Farness(pts, m, r.selected);
  EXPECT_GT(planted_farness, 0.4);  // far larger than typical inner gaps
}

TEST(GmmTest, WorksWithKEqualN) {
  EuclideanMetric m;
  PointSet pts = GenerateUniformCube(10, 2, /*seed=*/6);
  GmmResult r = Gmm(Dataset(pts), m, 10);
  EXPECT_EQ(r.selected.size(), 10u);
  EXPECT_NEAR(r.range, 0.0, 1e-12);
}

TEST(GmmTest, SingleCenter) {
  EuclideanMetric m;
  PointSet pts = GenerateUniformCube(10, 2, /*seed=*/7);
  GmmResult r = Gmm(Dataset(pts), m, 1);
  EXPECT_EQ(r.selected.size(), 1u);
  EXPECT_GT(r.range, 0.0);
}

PointSet SparsePoints(size_t n, uint64_t seed) {
  SparseTextOptions opts;
  opts.n = n;
  opts.vocab_size = 300;
  opts.seed = seed;
  return GenerateSparseTextDataset(opts);
}

// One dense row in three, the rest sparse over the same dimension.
PointSet MixedPoints(size_t n, size_t dim, uint64_t seed) {
  Rng rng(seed);
  PointSet pts;
  for (size_t i = 0; i < n; ++i) {
    if (i % 3 == 0) {
      std::vector<float> values(dim);
      for (float& v : values) v = static_cast<float>(rng.NextDouble());
      pts.push_back(Point::Dense(std::move(values)));
    } else {
      std::vector<uint32_t> indices;
      std::vector<float> values;
      for (uint32_t j = 0; j < dim; ++j) {
        if (rng.NextDouble() < 0.4) {
          indices.push_back(j);
          values.push_back(static_cast<float>(rng.NextDouble()));
        }
      }
      pts.push_back(Point::Sparse(std::move(indices), std::move(values),
                                  static_cast<uint32_t>(dim)));
    }
  }
  return pts;
}

// Clustered sparse data: `clusters` topic supports over the vocabulary; each
// point takes its topic's support with a few indices swapped, so Jaccard and
// angular distances are small inside a topic and near-maximal across.
PointSet ClusteredSparsePoints(size_t n, size_t clusters, uint64_t seed) {
  constexpr uint32_t kVocab = 400;
  constexpr size_t kSupport = 40;
  Rng rng(seed);
  PointSet pts;
  for (size_t i = 0; i < n; ++i) {
    size_t topic = i % clusters;
    std::vector<uint32_t> idx;
    std::vector<float> val;
    for (size_t j = 0; j < kSupport; ++j) {
      uint32_t base = static_cast<uint32_t>((topic * kSupport + j) % kVocab);
      if (rng.NextDouble() < 0.05) {
        base = static_cast<uint32_t>(rng.NextBounded(kVocab));
      }
      idx.push_back(base);
      val.push_back(1.0f + static_cast<float>(rng.NextDouble()));
    }
    std::sort(idx.begin(), idx.end());
    idx.erase(std::unique(idx.begin(), idx.end()), idx.end());
    val.resize(idx.size());
    pts.push_back(Point::Sparse(std::move(idx), std::move(val), kVocab));
  }
  return pts;
}

PointSet AllDuplicates(size_t n) {
  PointSet pts;
  for (size_t i = 0; i < n; ++i) pts.push_back(Point::Dense3(1.0f, 2.0f, 3.0f));
  return pts;
}

// A tight cluster plus one far outlier: every radius but the first collapses.
PointSet OneClusterPlusOutlier(size_t n, uint64_t seed) {
  Rng rng(seed);
  PointSet pts;
  for (size_t i = 0; i + 1 < n; ++i) {
    pts.push_back(Point::Dense3(static_cast<float>(rng.NextDouble() * 0.01),
                                static_cast<float>(rng.NextDouble() * 0.01),
                                static_cast<float>(rng.NextDouble() * 0.01)));
  }
  pts.push_back(Point::Dense3(100.0f, -50.0f, 25.0f));
  return pts;
}

struct GmmCase {
  std::string name;
  PointSet pts;
  size_t k;
  size_t first;
};

std::vector<GmmCase> GmmCases() {
  std::vector<GmmCase> cases;
  cases.push_back({"dense", GenerateUniformCube(140, 6, /*seed=*/301), 10, 0});
  cases.push_back({"sparse", SparsePoints(140, /*seed=*/302), 10, 0});
  cases.push_back({"mixed", MixedPoints(140, 12, /*seed=*/303), 10, 0});
  cases.push_back({"dense-clustered",
                   GenerateGaussianBlobs(4000, 8, 8, 0.02, /*seed=*/311), 48,
                   7});
  cases.push_back({"sparse-clustered",
                   ClusteredSparsePoints(3000, 12, /*seed=*/312), 48, 7});
  cases.push_back({"duplicates", AllDuplicates(90), 10, 0});
  cases.push_back({"degenerate-radius",
                   OneClusterPlusOutlier(120, /*seed=*/304), 10, 0});
  cases.push_back({"single-point", OneClusterPlusOutlier(1, /*seed=*/305), 1,
                   0});
  // Inputs on both sides of GMM's skip: a uniform dim-32 cube (almost no
  // row can be skipped), the paper's dim-3 planted sphere, and 64 tight
  // dim-16 blobs (most rows skipped once every blob holds a center).
  cases.push_back({"uniform-dim32", GenerateUniformCube(2000, 32, /*seed=*/306),
                   40, 3});
  SphereDatasetOptions sphere;
  sphere.n = 3000;
  sphere.k = 16;
  sphere.seed = 307;
  cases.push_back({"sphere-dim3", GenerateSphereDataset(sphere), 48, 11});
  cases.push_back({"blobs64-dim16",
                   GenerateGaussianBlobs(4000, 64, 16, 0.02, /*seed=*/308),
                   96, 0});
  return cases;
}

class GmmThreads : public ::testing::TestWithParam<size_t> {};

INSTANTIATE_TEST_SUITE_P(Threads, GmmThreads, ::testing::Values(1, 2, 4));

// The batched screened Gmm equals the scalar reference byte for byte, for
// every built-in metric x layout x thread count, with GMM's skip (indexing)
// on and off, including layouts built to stress ties (duplicates),
// degenerate radii and a single point.
TEST_P(GmmThreads, BitIdenticalToScalar) {
  SetGlobalThreadPoolSize(GetParam());
  for (const GmmCase& c : GmmCases()) {
    Dataset data(c.pts);
    for (const std::string name : {"euclidean", "manhattan", "cosine",
                                   "jaccard"}) {
      const GmmResult want =
          GmmScalar(c.pts, *MakeMetricByName(name), c.k, c.first);
      for (bool indexing : {true, false}) {
        std::unique_ptr<Metric> metric =
            MakeMetricByName(name, {.indexing = indexing});
        const std::string ctx =
            name + "/" + c.name + (indexing ? "/indexed" : "/flat");
        GmmResult got = Gmm(data, *metric, c.k, c.first);
        EXPECT_EQ(got.selected, want.selected) << ctx;
        EXPECT_EQ(got.selection_distance, want.selection_distance) << ctx;
        EXPECT_EQ(got.assignment, want.assignment) << ctx;
        EXPECT_EQ(got.distance_to_selected, want.distance_to_selected)
            << ctx;
        EXPECT_EQ(got.range, want.range) << ctx;
      }
    }
  }
  SetGlobalThreadPoolSize(1);
}

TEST(GmmDeathTest, RejectsKZero) {
  EuclideanMetric m;
  PointSet pts = GenerateUniformCube(5, 2, /*seed=*/8);
  EXPECT_DEATH(Gmm(Dataset(pts), m, 0), "CHECK failed");
}

TEST(GmmDeathTest, RejectsKBeyondN) {
  EuclideanMetric m;
  PointSet pts = GenerateUniformCube(5, 2, /*seed=*/9);
  EXPECT_DEATH(Gmm(Dataset(pts), m, 6), "CHECK failed");
}

}  // namespace
}  // namespace diverse
