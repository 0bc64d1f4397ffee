// The screen-then-certify contract (core/screen.h): every screened sweep
// produces BIT-IDENTICAL selections, radii, distances, and trajectories to
// the exact double-only path it replaces — across metrics, representations,
// and thread counts — because the fp32 pass only ever proves that skipped
// candidates could not influence the outcome. The suite covers:
//   * end-to-end consumers (GMM, greedy matching, SMM streams,
//     generalized-coreset instantiation) screened vs exact at 1/2/8
//     threads;
//   * the certified error bound itself, property-tested against sampled
//     |screened - exact| gaps for every profitable metric and layout;
//   * adversarial inputs: fp32-colliding near-ties whose doubles differ,
//     exact duplicate ties (first-index wins), stored-zero sparse rows,
//     denormal coordinates, and magnitudes that overflow the fp32
//     accumulator (screened value inf -> unconditional rescue);
//   * accounting: screened/exact split determinism at any thread count, and
//     the exact-eval count never exceeding the pre-screening baseline.

#include <cmath>
#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/dataset.h"
#include "core/generalized_coreset.h"
#include "core/gmm.h"
#include "core/metric.h"
#include "core/sequential.h"
#include "data/sparse_text.h"
#include "data/synthetic.h"
#include "streaming/smm.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace diverse {
namespace {

PointSet DensePoints(size_t n, size_t dim, uint64_t seed) {
  return GenerateUniformCube(n, dim, seed);
}

PointSet SparsePoints(size_t n, uint64_t seed) {
  SparseTextOptions opts;
  opts.n = n;
  opts.vocab_size = 300;
  opts.seed = seed;
  return GenerateSparseTextDataset(opts);
}

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

// Sparse rows that *store* zero values (support semantics differ from
// absent coordinates) plus denormal and huge magnitudes.
PointSet AdversarialMagnitudePoints() {
  PointSet pts;
  auto sparse = [](std::vector<uint32_t> idx, std::vector<float> val) {
    return Point::Sparse(std::move(idx), std::move(val), 8);
  };
  pts.push_back(sparse({0, 3}, {1.0f, 2.0f}));
  pts.push_back(sparse({0, 3}, {1.0f, 0.0f}));       // stored zero
  pts.push_back(sparse({1, 2, 7}, {0.0f, 0.0f, 0.0f}));  // all stored zeros
  pts.push_back(sparse({}, {}));                     // empty support
  pts.push_back(sparse({2, 5}, {1e-40f, 1e-41f}));   // denormal coords
  pts.push_back(sparse({2, 5}, {3e19f, 3e19f}));     // fp32 dot/sq overflow
  pts.push_back(sparse({4}, {1e20f}));
  pts.push_back(sparse({0, 1, 2, 3}, {1e-20f, 1e-20f, 1e-20f, 1e-20f}));
  Rng rng(77);
  for (size_t i = 0; i < 40; ++i) {
    std::vector<uint32_t> idx;
    std::vector<float> val;
    for (uint32_t j = 0; j < 8; ++j) {
      if (rng.NextDouble() < 0.5) {
        idx.push_back(j);
        val.push_back(static_cast<float>(rng.NextDouble() * 2.0 - 1.0));
      }
    }
    pts.push_back(sparse(std::move(idx), std::move(val)));
  }
  return pts;
}

// Dense near-ties: distances from the first center collide in fp32 but
// differ in double, plus exact duplicates for first-index tie-breaking.
PointSet DenseNearTiePoints() {
  PointSet pts;
  pts.push_back(Point::Dense3(0.0f, 0.0f, 0.0f));
  // |p| = 1 exactly vs sqrt(1 + 9e-12): indistinguishable after fp32
  // accumulation, distinct in double — the screened argmax must rescue
  // both and let the doubles decide.
  pts.push_back(Point::Dense3(1.0f, 0.0f, 0.0f));
  pts.push_back(Point::Dense3(1.0f, 3e-6f, 0.0f));
  pts.push_back(Point::Dense3(1.0f, 0.0f, 0.0f));  // duplicate: exact tie
  pts.push_back(Point::Dense3(1.0f, 0.0f, 3e-6f));
  // Denormal and huge dense coordinates.
  pts.push_back(Point::Dense3(1e-40f, 1e-40f, 0.0f));
  pts.push_back(Point::Dense3(3e19f, 3e19f, 3e19f));  // |.|^2 overflows fp32
  pts.push_back(Point::Dense3(-3e19f, 3e19f, -3e19f));
  Rng rng(78);
  for (size_t i = 0; i < 40; ++i) {
    pts.push_back(Point::Dense3(static_cast<float>(rng.NextDouble()),
                                static_cast<float>(rng.NextDouble()),
                                static_cast<float>(rng.NextDouble())));
  }
  return pts;
}

std::vector<std::unique_ptr<Metric>> AllMetrics() {
  std::vector<std::unique_ptr<Metric>> metrics;
  metrics.push_back(std::make_unique<EuclideanMetric>());
  metrics.push_back(std::make_unique<ManhattanMetric>());
  metrics.push_back(std::make_unique<CosineMetric>());
  metrics.push_back(std::make_unique<JaccardMetric>());
  return metrics;
}

// The built-in `metric` rebuilt with screening off: the exact-only oracle.
std::unique_ptr<Metric> Unscreened(const Metric& metric) {
  return MakeMetricByName(metric.Name(), {.screening = false});
}

struct NamedLayout {
  std::string name;
  PointSet pts;
};

std::vector<NamedLayout> AllLayouts() {
  std::vector<NamedLayout> layouts;
  layouts.push_back({"dense", DensePoints(120, 6, /*seed=*/201)});
  layouts.push_back({"sparse", SparsePoints(120, /*seed=*/202)});
  layouts.push_back({"mixed", MixedPoints(120, 12, /*seed=*/203)});
  layouts.push_back({"near-tie", DenseNearTiePoints()});
  layouts.push_back({"magnitude", AdversarialMagnitudePoints()});
  return layouts;
}

class ThreadCounts : public ::testing::TestWithParam<size_t> {};

INSTANTIATE_TEST_SUITE_P(Threads, ThreadCounts, ::testing::Values(1, 2, 8));

TEST_P(ThreadCounts, GmmTrajectoryBitIdenticalToExact) {
  SetGlobalThreadPoolSize(GetParam());
  for (const NamedLayout& layout : AllLayouts()) {
    Dataset data(layout.pts);
    for (const auto& metric : AllMetrics()) {
      GmmResult exact = Gmm(data, *Unscreened(*metric), 10);
      GmmResult screened = Gmm(data, *metric, 10);
      std::string ctx = metric->Name() + "/" + layout.name;
      EXPECT_EQ(screened.selected, exact.selected) << ctx;
      EXPECT_EQ(screened.assignment, exact.assignment) << ctx;
      EXPECT_EQ(screened.range, exact.range) << ctx;
      EXPECT_EQ(screened.selection_distance, exact.selection_distance) << ctx;
      EXPECT_EQ(screened.distance_to_selected, exact.distance_to_selected)
          << ctx;
    }
  }
  SetGlobalThreadPoolSize(1);
}

TEST_P(ThreadCounts, GreedyMatchingBitIdenticalToExact) {
  SetGlobalThreadPoolSize(GetParam());
  for (const NamedLayout& layout : AllLayouts()) {
    Dataset data(layout.pts);
    for (const auto& metric : AllMetrics()) {
      std::string ctx = metric->Name() + "/" + layout.name;
      std::vector<size_t> exact_match =
          GreedyMatchingOnDataset(data, *Unscreened(*metric), 9);
      EXPECT_EQ(GreedyMatchingOnDataset(data, *metric, 9), exact_match) << ctx;
    }
  }
  SetGlobalThreadPoolSize(1);
}

TEST_P(ThreadCounts, SmmStreamsBitIdenticalToExact) {
  SetGlobalThreadPoolSize(GetParam());
  for (const NamedLayout& layout : AllLayouts()) {
    for (const auto& metric : AllMetrics()) {
      std::string ctx = metric->Name() + "/" + layout.name;
      PointSet exact_centers, exact_ext;
      GeneralizedCoreset exact_gen;
      double exact_threshold;
      size_t exact_phases;
      {
        const auto exact = Unscreened(*metric);
        Smm smm(exact.get(), 4, 8);
        SmmExt ext(exact.get(), 4, 8);
        SmmGen gen(exact.get(), 4, 8);
        for (const Point& p : layout.pts) {
          smm.Update(p);
          ext.Update(p);
          gen.Update(p);
        }
        exact_threshold = smm.engine().threshold();
        exact_phases = smm.engine().phases();
        exact_centers = smm.Finalize();
        exact_ext = ext.Finalize();
        exact_gen = gen.Finalize();
      }
      Smm smm(metric.get(), 4, 8);
      SmmExt ext(metric.get(), 4, 8);
      SmmGen gen(metric.get(), 4, 8);
      for (const Point& p : layout.pts) {
        smm.Update(p);
        ext.Update(p);
        gen.Update(p);
      }
      EXPECT_EQ(smm.engine().threshold(), exact_threshold) << ctx;
      EXPECT_EQ(smm.engine().phases(), exact_phases) << ctx;
      EXPECT_EQ(smm.Finalize(), exact_centers) << ctx;
      EXPECT_EQ(ext.Finalize(), exact_ext) << ctx;
      GeneralizedCoreset gen_result = gen.Finalize();
      ASSERT_EQ(gen_result.size(), exact_gen.size()) << ctx;
      for (size_t i = 0; i < gen_result.size(); ++i) {
        EXPECT_EQ(gen_result.entries()[i].point, exact_gen.entries()[i].point)
            << ctx;
        EXPECT_EQ(gen_result.entries()[i].multiplicity,
                  exact_gen.entries()[i].multiplicity)
            << ctx;
      }
    }
  }
  SetGlobalThreadPoolSize(1);
}

TEST_P(ThreadCounts, InstantiateBitIdenticalToExact) {
  SetGlobalThreadPoolSize(GetParam());
  for (const NamedLayout& layout : AllLayouts()) {
    Dataset data(layout.pts);
    for (const auto& metric : AllMetrics()) {
      std::string ctx = metric->Name() + "/" + layout.name;
      double range = 0.0;
      GeneralizedCoreset coreset =
          GmmGenCoreset(data, *metric, 4, 10, &range);
      std::optional<std::vector<size_t>> exact =
          Instantiate(coreset, data, *Unscreened(*metric), range);
      std::optional<std::vector<size_t>> screened =
          Instantiate(coreset, data, *metric, range);
      ASSERT_EQ(screened.has_value(), exact.has_value()) << ctx;
      if (exact.has_value()) EXPECT_EQ(*screened, *exact) << ctx;
    }
  }
  SetGlobalThreadPoolSize(1);
}

// The certified bound itself: sample every (query, row) pair of each layout
// through both tile kernels, and one row against all rows through both
// row-list kernels, and check |screened - exact| <= rel*s + abs whenever
// the screened value is finite. This is the property every certified skip
// relies on.
TEST(ScreenTest, ErrorBoundCoversSampledPairsAllMetricsAllLayouts) {
  for (const NamedLayout& layout : AllLayouts()) {
    Dataset data(layout.pts);
    size_t n = data.size();
    for (const auto& metric : AllMetrics()) {
      ScreenBound bound = metric->ScreenErrorBound(
          SideStatsOf(data), SideStatsOf(data), data.dim());
      std::vector<float> screened(n * n);
      std::vector<double> exact(n * n);
      metric->DistanceTileF32(data, 0, n, data, 0, n, screened.data(), n);
      metric->DistanceTile(data, 0, n, data, 0, n, exact.data(), n);
      for (size_t i = 0; i < n * n; ++i) {
        float s = screened[i];
        if (!std::isfinite(s)) continue;  // certifies nothing; always rescued
        double band = bound.rel * static_cast<double>(s) + bound.abs;
        EXPECT_LE(std::abs(static_cast<double>(s) - exact[i]), band)
            << metric->Name() << "/" << layout.name << " pair " << i
            << " screened=" << s << " exact=" << exact[i];
      }
      // One row against every row through the relax sweep's kernel pair,
      // under the bound the relax sweep certifies with.
      const size_t q = n / 2;
      std::vector<uint32_t> rows(n);
      for (size_t i = 0; i < n; ++i) rows[i] = static_cast<uint32_t>(i);
      std::vector<float> srow(n);
      std::vector<double> erow(n);
      metric->DistanceRowsManyF32(data, q, data, rows, srow.data());
      metric->DistanceRowsMany(data, q, data, rows, erow.data());
      for (size_t i = 0; i < n; ++i) {
        if (!std::isfinite(srow[i])) continue;
        double band = bound.rel * static_cast<double>(srow[i]) + bound.abs;
        EXPECT_LE(std::abs(static_cast<double>(srow[i]) - erow[i]), band)
            << metric->Name() << "/" << layout.name << " row " << i;
      }
    }
  }
}

// Rescue decisions are a function of fp32 values and bounds alone, so the
// screened/exact evaluation split must be identical at any thread count,
// and the exact (rescue) count can never exceed the pre-screening baseline
// of nq * n evaluations.
TEST(ScreenTest, ScreenedCountsDeterministicAcrossThreadCounts) {
  // dim >= 8 so the single-query work gate keeps the sweeps screened.
  PointSet pts = DensePoints(700, 8, /*seed=*/210);
  Dataset data(pts);
  const size_t k = 24;
  const size_t n = pts.size();
  // Flat sweeps (indexing off) screen every one of the k * n positions;
  // GMM's skip (indexing on) screens at most that many plus the k(k-1)/2
  // center-to-center distances, and pays at most k * n + k(k-1)/2 exact.
  for (bool indexing : {false, true}) {
    EuclideanMetric base({.indexing = indexing});
    uint64_t exact_ref = 0, screened_ref = 0;
    for (size_t threads : {1u, 2u, 8u}) {
      SetGlobalThreadPoolSize(threads);
      CountingMetric counting(&base);
      GmmResult r = Gmm(data, counting, k);
      ASSERT_EQ(r.selected.size(), k);
      if (threads == 1) {
        exact_ref = counting.exact_evals();
        screened_ref = counting.screened_evals();
        if (indexing) {
          EXPECT_LE(screened_ref, k * n + k * (k - 1) / 2);
          EXPECT_LE(exact_ref, k * n + k * (k - 1) / 2);
        } else {
          EXPECT_EQ(screened_ref, k * n);
          EXPECT_LE(exact_ref, k * n);
        }
      } else {
        EXPECT_EQ(counting.exact_evals(), exact_ref) << threads;
        EXPECT_EQ(counting.screened_evals(), screened_ref) << threads;
      }
    }
  }
  SetGlobalThreadPoolSize(1);
}

// The metric's screening policy: screening off means zero fp32 evaluations;
// results agree bit for bit either way.
TEST(ScreenTest, ToggleDisablesScreeningEntirely) {
  // With indexing off GMM pays exactly k * n exact evaluations; GMM's skip
  // (indexing on) pays at most that plus the k(k-1)/2 center-to-center
  // ones. Neither screens anything.
  const size_t k = 8;
  PointSet pts = DensePoints(300, 8, /*seed=*/211);
  Dataset data(pts);
  Dataset sparse(SparsePoints(150, /*seed=*/212));
  for (bool indexing : {false, true}) {
    {
      EuclideanMetric base({.screening = false, .indexing = indexing});
      CountingMetric counting(&base);
      Gmm(data, counting, k);
      EXPECT_EQ(counting.screened_evals(), 0u);
      if (indexing) {
        EXPECT_LE(counting.exact_evals(), k * pts.size() + k * (k - 1) / 2);
      } else {
        EXPECT_EQ(counting.exact_evals(), k * pts.size());
      }
    }
    // Jaccard never screens (ScreeningProfitableFor false), even when
    // enabled.
    {
      JaccardMetric jaccard({.indexing = indexing});
      CountingMetric counting(&jaccard);
      Gmm(sparse, counting, k);
      EXPECT_EQ(counting.screened_evals(), 0u);
      if (indexing) {
        EXPECT_LE(counting.exact_evals(),
                  k * sparse.size() + k * (k - 1) / 2);
      } else {
        EXPECT_EQ(counting.exact_evals(), k * sparse.size());
      }
    }
  }
}

}  // namespace
}  // namespace diverse
