#include "streaming/smm.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "core/metric.h"
#include "data/sparse_text.h"
#include "data/synthetic.h"
#include "util/thread_pool.h"

namespace diverse {
namespace {

using internal_smm::SmmEngine;

PointSet StreamOf(size_t n, uint64_t seed) {
  return GenerateUniformCube(n, 2, seed);
}

TEST(SmmTest, ShortStreamKeepsEverything) {
  EuclideanMetric m;
  Smm smm(&m, 3, 8);
  PointSet pts = StreamOf(5, 1);  // fewer than k'+1 = 9
  for (const Point& p : pts) smm.Update(p);
  PointSet coreset = smm.Finalize();
  EXPECT_EQ(coreset.size(), 5u);
}

TEST(SmmTest, CoresetHasAtLeastKPoints) {
  EuclideanMetric m;
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Smm smm(&m, 8, 12);
    for (const Point& p : StreamOf(500, seed)) smm.Update(p);
    EXPECT_GE(smm.Finalize().size(), 8u) << "seed " << seed;
  }
}

TEST(SmmTest, MemoryBoundedByKPrimePlusOne) {
  EuclideanMetric m;
  size_t k_prime = 16;
  Smm smm(&m, 4, k_prime);
  size_t peak_centers = 0;
  for (const Point& p : StreamOf(2000, 3)) {
    smm.Update(p);
    peak_centers = std::max(peak_centers, smm.engine().Centers().size());
  }
  EXPECT_LE(peak_centers, k_prime + 1);
}

TEST(SmmTest, CoverageInvariant) {
  // Every stream point must end up within CoverageRadiusBound of a center.
  EuclideanMetric m;
  PointSet pts = StreamOf(1000, 4);
  Smm smm(&m, 4, 10);
  for (const Point& p : pts) smm.Update(p);
  PointSet centers = smm.engine().Centers();
  double bound = smm.engine().CoverageRadiusBound();
  for (const Point& p : pts) {
    double dist = 1e100;
    for (const Point& c : centers) dist = std::min(dist, m.Distance(p, c));
    EXPECT_LE(dist, bound + 1e-9);
  }
}

TEST(SmmTest, SeparationInvariant) {
  // After each update, centers are pairwise more than d_i apart (invariant 2
  // of the doubling algorithm).
  EuclideanMetric m;
  PointSet pts = StreamOf(800, 5);
  Smm smm(&m, 4, 10);
  for (const Point& p : pts) smm.Update(p);
  PointSet centers = smm.engine().Centers();
  double d_i = smm.engine().threshold();
  for (size_t i = 0; i < centers.size(); ++i) {
    for (size_t j = i + 1; j < centers.size(); ++j) {
      EXPECT_GT(m.Distance(centers[i], centers[j]), d_i - 1e-9);
    }
  }
}

TEST(SmmTest, HandlesDuplicatePoints) {
  EuclideanMetric m;
  Smm smm(&m, 2, 4);
  Point a = Point::Dense2(0, 0), b = Point::Dense2(1, 1);
  for (int i = 0; i < 50; ++i) {
    smm.Update(a);
    smm.Update(b);
  }
  PointSet coreset = smm.Finalize();
  EXPECT_GE(coreset.size(), 2u);
}

TEST(SmmTest, PhasesIncreaseWithStreamSpread) {
  EuclideanMetric m;
  Smm smm(&m, 4, 8);
  // Exponentially growing coordinates force repeated threshold doubling.
  for (int i = 0; i < 200; ++i) {
    smm.Update(Point::Dense({static_cast<float>(std::pow(1.2, i % 60)),
                             static_cast<float>(i % 7)}));
  }
  EXPECT_GE(smm.engine().phases(), 2u);
}

TEST(SmmExtTest, DelegateCountsBounded) {
  EuclideanMetric m;
  size_t k = 5, k_prime = 10;
  SmmExt smm(&m, k, k_prime);
  for (const Point& p : StreamOf(2000, 6)) smm.Update(p);
  // Total delegates <= (k'+1) * k at any time.
  EXPECT_LE(smm.engine().StoredPoints(), (k_prime + 1) * k);
  PointSet coreset = smm.Finalize();
  EXPECT_GE(coreset.size(), k);
  EXPECT_LE(coreset.size(), (k_prime + 1) * k);
}

TEST(SmmExtTest, CoresetContainsOnlyStreamPoints) {
  EuclideanMetric m;
  PointSet pts = StreamOf(300, 7);
  SmmExt smm(&m, 3, 6);
  for (const Point& p : pts) smm.Update(p);
  for (const Point& c : smm.Finalize()) {
    bool found = std::any_of(pts.begin(), pts.end(),
                             [&c](const Point& p) { return p == c; });
    EXPECT_TRUE(found);
  }
}

TEST(SmmExtTest, DelegatesAreDistinctPoints) {
  // Streams without duplicates must yield coresets without duplicates.
  EuclideanMetric m;
  PointSet pts = StreamOf(500, 8);
  SmmExt smm(&m, 4, 8);
  for (const Point& p : pts) smm.Update(p);
  PointSet coreset = smm.Finalize();
  for (size_t i = 0; i < coreset.size(); ++i) {
    for (size_t j = i + 1; j < coreset.size(); ++j) {
      EXPECT_FALSE(coreset[i] == coreset[j]) << i << "," << j;
    }
  }
}

TEST(SmmGenTest, MultiplicitiesBoundedByK) {
  EuclideanMetric m;
  size_t k = 6, k_prime = 12;
  SmmGen smm(&m, k, k_prime);
  for (const Point& p : StreamOf(2000, 9)) smm.Update(p);
  GeneralizedCoreset gc = smm.Finalize();
  EXPECT_LE(gc.size(), k_prime + 1);
  for (const WeightedPoint& e : gc.entries()) {
    EXPECT_GE(e.multiplicity, 1u);
    EXPECT_LE(e.multiplicity, k);
  }
  EXPECT_GE(gc.ExpandedSize(), k);
}

TEST(SmmGenTest, StoresOnlyKernelPoints) {
  EuclideanMetric m;
  SmmGen smm(&m, 4, 8);
  for (const Point& p : StreamOf(1000, 10)) smm.Update(p);
  // Memory in counts mode = number of centers <= k'+1.
  EXPECT_LE(smm.engine().StoredPoints(), 9u);
}

TEST(SmmGenTest, ExpandedSizeMatchesDelegateVariant) {
  // On the same stream, SMM-GEN's total multiplicity equals SMM-EXT's
  // delegate count: the two variants follow identical phase trajectories.
  EuclideanMetric m;
  PointSet pts = StreamOf(800, 11);
  SmmExt ext(&m, 5, 9);
  SmmGen gen(&m, 5, 9);
  for (const Point& p : pts) {
    ext.Update(p);
    gen.Update(p);
  }
  EXPECT_EQ(ext.Finalize().size(), gen.Finalize().ExpandedSize());
}

TEST(SmmDeathTest, RequiresKPrimeAtLeastK) {
  EuclideanMetric m;
  EXPECT_DEATH(Smm(&m, 5, 4), "CHECK failed");
}

// Forwards Distance to CosineMetric and keeps every other Metric member's
// base-class fallback, so each SMM sweep runs the scalar per-row loop.
class ScalarCosineMetric final : public Metric {
 public:
  double Distance(const Point& a, const Point& b) const override {
    return cosine_.Distance(a, b);
  }
  std::string Name() const override { return "scalar-cosine"; }

 private:
  CosineMetric cosine_;
};

// Everything the three SMM variants produce on one stream.
struct SmmRun {
  PointSet centers;
  PointSet delegates;
  GeneralizedCoreset counts;
  double threshold[3];
  size_t phases[3];
};

SmmRun RunAllSmm(const Metric* m, const PointSet& stream) {
  const size_t k = 8, k_prime = 64;
  Smm smm(m, k, k_prime);
  SmmExt ext(m, k, k_prime);
  SmmGen gen(m, k, k_prime);
  for (const Point& p : stream) {
    smm.Update(p);
    ext.Update(p);
    gen.Update(p);
  }
  SmmRun r;
  const internal_smm::SmmEngine* engines[] = {&smm.engine(), &ext.engine(),
                                              &gen.engine()};
  for (size_t v = 0; v < 3; ++v) {
    r.threshold[v] = engines[v]->threshold();
    r.phases[v] = engines[v]->phases();
  }
  r.centers = smm.Finalize();
  r.delegates = ext.Finalize();
  r.counts = gen.Finalize();
  return r;
}

void ExpectSameRun(const SmmRun& got, const SmmRun& want) {
  EXPECT_EQ(got.centers, want.centers);
  EXPECT_EQ(got.delegates, want.delegates);
  ASSERT_EQ(got.counts.size(), want.counts.size());
  for (size_t i = 0; i < got.counts.size(); ++i) {
    EXPECT_EQ(got.counts.entries()[i].point, want.counts.entries()[i].point);
    EXPECT_EQ(got.counts.entries()[i].multiplicity,
              want.counts.entries()[i].multiplicity);
  }
  for (size_t v = 0; v < 3; ++v) {
    EXPECT_EQ(got.threshold[v], want.threshold[v]) << "variant " << v;
    EXPECT_EQ(got.phases[v], want.phases[v]) << "variant " << v;
  }
}

// The sparse-cosine sweeps of the built-in metric (one query scored through
// a slot table) must follow the scalar fallbacks' trajectory exactly: the
// same core-sets, threshold and phase count, at any thread count, with an
// exact-evaluation count that does not depend on the thread count.
TEST(SmmTest, SparseCosineMatchesScalarFallbackAtAnyThreadCount) {
  SparseTextOptions opts;
  opts.n = 5000;
  opts.seed = 61;
  PointSet stream = GenerateSparseTextDataset(opts);
  ScalarCosineMetric scalar;
  CosineMetric cosine;
  SetGlobalThreadPoolSize(1);
  SmmRun want = RunAllSmm(&scalar, stream);
  EXPECT_GE(want.phases[0], 2u);
  uint64_t exact_at_one_thread = 0;
  for (size_t threads : {1, 2, 8}) {
    SCOPED_TRACE(testing::Message() << "threads " << threads);
    SetGlobalThreadPoolSize(threads);
    ExpectSameRun(RunAllSmm(&scalar, stream), want);
    CountingMetric counting(&cosine);
    ExpectSameRun(RunAllSmm(&counting, stream), want);
    if (threads == 1) exact_at_one_thread = counting.exact_evals();
    EXPECT_EQ(counting.exact_evals(), exact_at_one_thread);
  }
  SetGlobalThreadPoolSize(1);
}

// Parameterized sweep: the coreset size grows with k' and the coverage
// bound shrinks (better locality) across a range of configurations.
class SmmSweepTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {};

TEST_P(SmmSweepTest, InvariantsAcrossConfigurations) {
  auto [k, mult] = GetParam();
  size_t k_prime = k * mult;
  EuclideanMetric m;
  PointSet pts = StreamOf(1500, 17 + k + mult);
  Smm smm(&m, k, k_prime);
  for (const Point& p : pts) smm.Update(p);
  PointSet coreset = smm.Finalize();
  EXPECT_GE(coreset.size(), k);
  EXPECT_LE(coreset.size(), k_prime + 1);
  PointSet centers = smm.engine().Centers();
  double bound = smm.engine().CoverageRadiusBound();
  for (const Point& p : pts) {
    double dist = 1e100;
    for (const Point& c : centers) dist = std::min(dist, m.Distance(p, c));
    ASSERT_LE(dist, bound + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SmmSweepTest,
    ::testing::Combine(::testing::Values(2, 4, 8, 16),
                       ::testing::Values(1, 2, 4)),
    [](const ::testing::TestParamInfo<std::tuple<size_t, size_t>>& info) {
      return "k" + std::to_string(std::get<0>(info.param)) + "_mult" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace diverse
