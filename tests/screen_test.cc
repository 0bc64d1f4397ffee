// The screen-then-certify contract (core/screen.h): every screened sweep
// produces BIT-IDENTICAL selections, radii, distances, and trajectories to
// the exact double-only path it replaces — across metrics, representations,
// and thread counts — because the fp32 pass only ever proves that skipped
// candidates could not influence the outcome. The suite covers:
//   * end-to-end consumers (GMM, k-center doubling assignment,
//     ClusteringRadius, greedy matching, SMM streams, generalized-coreset
//     instantiation) screened vs exact at 1/2/8 threads;
//   * the certified error bound itself, property-tested against sampled
//     |screened - exact| gaps for every profitable metric and layout;
//   * adversarial inputs: fp32-colliding near-ties whose doubles differ,
//     exact duplicate ties (first-index wins), stored-zero sparse rows,
//     denormal coordinates, and magnitudes that overflow the fp32
//     accumulator (screened value inf -> unconditional rescue);
//   * accounting: screened/exact split determinism at any thread count, and
//     the exact-eval count never exceeding the pre-screening baseline.

#include <cmath>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/dataset.h"
#include "core/generalized_coreset.h"
#include "core/gmm.h"
#include "core/kcenter.h"
#include "core/metric.h"
#include "core/screen.h"
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

TEST_P(ThreadCounts, ScreenedTileRelaxBitIdenticalToExact) {
  SetGlobalThreadPoolSize(GetParam());
  for (const NamedLayout& layout : AllLayouts()) {
    Dataset data(layout.pts);
    size_t n = data.size();
    for (const auto& metric : AllMetrics()) {
      std::vector<double> exact_dist(n,
                                     std::numeric_limits<double>::infinity());
      std::vector<size_t> exact_assign(n, 0);
      size_t exact_best = RelaxTilesAndArgFarthest(
          *metric, data, 0, std::min<size_t>(20, n), 0, data, exact_dist,
          exact_assign);
      std::vector<double> dist(n, std::numeric_limits<double>::infinity());
      std::vector<size_t> assign(n, 0);
      size_t best = ScreenedRelaxTilesAndArgFarthest(
          *metric, data, 0, std::min<size_t>(20, n), 0, data, dist, assign);
      std::string ctx = metric->Name() + "/" + layout.name;
      EXPECT_EQ(best, exact_best) << ctx;
      EXPECT_EQ(dist, exact_dist) << ctx;
      EXPECT_EQ(assign, exact_assign) << ctx;
    }
  }
  SetGlobalThreadPoolSize(1);
}

TEST_P(ThreadCounts, KCenterAndMatchingAndRadiusBitIdenticalToExact) {
  SetGlobalThreadPoolSize(GetParam());
  for (const NamedLayout& layout : AllLayouts()) {
    Dataset data(layout.pts);
    for (const auto& metric : AllMetrics()) {
      std::string ctx = metric->Name() + "/" + layout.name;
      KCenterResult exact_kc;
      std::vector<size_t> exact_match;
      double exact_radius;
      {
        const auto exact = Unscreened(*metric);
        exact_kc = SolveKCenterDoubling(layout.pts, *exact, 6);
        exact_match = GreedyMatchingOnDataset(data, *exact, 9);
        exact_radius = ClusteringRadius(data, *exact, exact_kc.centers);
      }
      KCenterResult kc = SolveKCenterDoubling(layout.pts, *metric, 6);
      EXPECT_EQ(kc.centers, exact_kc.centers) << ctx;
      EXPECT_EQ(kc.assignment, exact_kc.assignment) << ctx;
      EXPECT_EQ(kc.radius, exact_kc.radius) << ctx;
      EXPECT_EQ(GreedyMatchingOnDataset(data, *metric, 9), exact_match) << ctx;
      EXPECT_EQ(ClusteringRadius(data, *metric, kc.centers), exact_radius)
          << ctx;
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
      std::optional<PointSet> exact =
          Instantiate(coreset, layout.pts, *Unscreened(*metric), range);
      std::optional<PointSet> screened =
          Instantiate(coreset, layout.pts, *metric, range);
      ASSERT_EQ(screened.has_value(), exact.has_value()) << ctx;
      if (exact.has_value()) EXPECT_EQ(*screened, *exact) << ctx;
    }
  }
  SetGlobalThreadPoolSize(1);
}

// The certified bound itself: sample every (query, row) pair of each layout
// through both tile kernels and check |screened - exact| <= rel*s + abs
// whenever the screened value is finite. This is the property every
// certified skip relies on.
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
      // Point-query sweep against its own bound.
      const Point& q = layout.pts[layout.pts.size() / 2];
      ScreenBound qbound = metric->ScreenErrorBound(
          SideStatsOf(q), SideStatsOf(data), data.dim());
      std::vector<float> srow(n);
      std::vector<double> erow(n);
      metric->DistanceToManyF32(q, data, 0, srow);
      metric->DistanceToMany(q, data, 0, erow);
      for (size_t i = 0; i < n; ++i) {
        if (!std::isfinite(srow[i])) continue;
        double band = qbound.rel * static_cast<double>(srow[i]) + qbound.abs;
        EXPECT_LE(std::abs(static_cast<double>(srow[i]) - erow[i]), band)
            << metric->Name() << "/" << layout.name << " row " << i;
      }
    }
  }
}

TEST(ScreenTest, ArgClosestAndFirstWithinMatchExactIncludingBoundaries) {
  for (const NamedLayout& layout : AllLayouts()) {
    Dataset data(layout.pts);
    for (const auto& metric : AllMetrics()) {
      std::string ctx = metric->Name() + "/" + layout.name;
      const auto exact = Unscreened(*metric);
      for (size_t qi : {size_t{0}, layout.pts.size() / 2}) {
        const Point& q = layout.pts[qi];
        double exact_min, min_dist;
        size_t exact_idx = ScreenedArgClosest(*exact, q, data, &exact_min);
        size_t idx = ScreenedArgClosest(*metric, q, data, &min_dist);
        EXPECT_EQ(idx, exact_idx) << ctx;
        EXPECT_EQ(min_dist, exact_min) << ctx;
        // Thresholds at an exact distance value (inclusive boundary), just
        // below it, and far out.
        std::vector<double> all(data.size());
        metric->DistanceToMany(q, data, 0, all);
        double mid = all[data.size() / 3];
        for (double threshold :
             {exact_min, std::nextafter(exact_min, -1.0), mid,
              std::nextafter(mid, -1.0), 1e300, -1.0}) {
          size_t exact_first = ScreenedFirstWithin(*exact, q, data, threshold);
          size_t first = ScreenedFirstWithin(*metric, q, data, threshold);
          EXPECT_EQ(first, exact_first) << ctx << " threshold " << threshold;
        }
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
  EuclideanMetric base;
  uint64_t exact_ref = 0, screened_ref = 0;
  for (size_t threads : {1u, 2u, 8u}) {
    SetGlobalThreadPoolSize(threads);
    CountingMetric counting(&base);
    GmmResult r = Gmm(data, counting, 24);
    ASSERT_EQ(r.selected.size(), 24u);
    if (threads == 1) {
      exact_ref = counting.exact_evals();
      screened_ref = counting.screened_evals();
      EXPECT_EQ(screened_ref, 24u * pts.size());
      EXPECT_LE(exact_ref, 24u * pts.size());
    } else {
      EXPECT_EQ(counting.exact_evals(), exact_ref) << threads;
      EXPECT_EQ(counting.screened_evals(), screened_ref) << threads;
    }
  }
  SetGlobalThreadPoolSize(1);
}


// The fused tile kernels (Metric::ScreenedRelaxTile overrides) must match
// the unfused materialize-then-collect loop (UnfusedScreenedRelaxTile) bit
// for bit AND never pay more exact rescues than it: the dense kernels
// certify skips against the same thresholds and screen the remaining
// candidates with a per-row argmin test that can only shrink the rescue
// set. Rows never couple, so one unfused call over all rows relaxes exactly
// as the sweep's per-range calls do.
TEST(ScreenTest, FusedTileRelaxNoMoreExactEvalsThanUnfused) {
  for (size_t dim : {3u, 16u}) {
    Dataset data(DensePoints(3000, dim, /*seed=*/230));
    EuclideanMetric inner;
    size_t nq = 48;

    CountingMetric fused(&inner);
    std::vector<double> fdist(data.size(),
                              std::numeric_limits<double>::infinity());
    std::vector<size_t> fassign(data.size(), 0);
    size_t fbest = ScreenedRelaxTilesAndArgFarthest(fused, data, 0, nq, 0,
                                                    data, fdist, fassign);

    CountingMetric unfused(&inner);
    std::vector<double> udist(data.size(),
                              std::numeric_limits<double>::infinity());
    std::vector<size_t> uassign(data.size(), 0);
    ScreenSideStats stats = SideStatsOf(data);
    UnfusedScreenedRelaxTile(unfused, data, 0, nq, 0, data, 0, data.size(),
                             inner.ScreenErrorBound(stats, stats, dim),
                             udist, uassign);
    size_t ubest = 0;
    for (size_t i = 1; i < udist.size(); ++i) {
      if (udist[i] > udist[ubest]) ubest = i;
    }

    EXPECT_EQ(fbest, ubest) << dim;
    EXPECT_EQ(fdist, udist) << dim;
    EXPECT_EQ(fassign, uassign) << dim;
    EXPECT_EQ(fused.screened_evals(), unfused.screened_evals()) << dim;
    EXPECT_GT(fused.screened_evals(), 0u) << dim;
    EXPECT_LE(fused.exact_evals(), unfused.exact_evals()) << dim;
    EXPECT_LE(fused.exact_evals(), nq * data.size()) << dim;
  }
}

// The fused SMM sweeps dropped the >=8-coords-per-row gate: a dim-3 dense
// stream now actually screens (screened_evals > 0) while staying
// bit-identical (covered by SmmStreamsBitIdenticalToExact above), and the
// exact (rescue) count stays below the pre-screening baseline.
TEST(ScreenTest, FusedSmmSweepsScreenAtLowDimension) {
  PointSet pts = DensePoints(400, 3, /*seed=*/231);
  EuclideanMetric base;
  CountingMetric counting(&base);
  Smm smm(&counting, 8, 16);
  for (const Point& p : pts) smm.Update(p);
  EXPECT_GT(counting.screened_evals(), 0u);
  // Coverage certificates and argmin screening keep the exact evals well
  // under one-per-(point, center) pair.
  EXPECT_LT(counting.exact_evals(),
            counting.screened_evals() + 17 * 17 * pts.size() / 100);
  EXPECT_GE(smm.Finalize().size(), 1u);
}

// The cosine-space angular screen: all-sparse cosine tiles now pass the
// fused gate (RelaxTileScreeningProfitableFor) and screen — bit-identical
// to the exact tile relax, with deterministic counts across thread counts.
TEST(ScreenTest, SparseCosineTileRelaxScreensAndMatchesExact) {
  PointSet docs = SparsePoints(600, /*seed=*/232);
  Dataset data(docs);
  CosineMetric base;
  ASSERT_TRUE(base.RelaxTileScreeningProfitableFor(SideStatsOf(data),
                                                   SideStatsOf(data)));
  size_t nq = 24;
  std::vector<double> exact_dist(data.size(),
                                 std::numeric_limits<double>::infinity());
  std::vector<size_t> exact_assign(data.size(), 0);
  size_t exact_best = RelaxTilesAndArgFarthest(base, data, 0, nq, 0, data,
                                                exact_dist, exact_assign);
  uint64_t screened_ref = 0, exact_ref = 0;
  for (size_t threads : {1u, 2u, 8u}) {
    SetGlobalThreadPoolSize(threads);
    CountingMetric counting(&base);
    std::vector<double> dist(data.size(),
                             std::numeric_limits<double>::infinity());
    std::vector<size_t> assign(data.size(), 0);
    size_t best = ScreenedRelaxTilesAndArgFarthest(counting, data, 0, nq, 0,
                                                   data, dist, assign);
    EXPECT_EQ(best, exact_best) << threads;
    EXPECT_EQ(dist, exact_dist) << threads;
    EXPECT_EQ(assign, exact_assign) << threads;
    EXPECT_EQ(counting.screened_evals(), nq * data.size()) << threads;
    EXPECT_LE(counting.exact_evals(), nq * data.size()) << threads;
    EXPECT_GT(counting.exact_evals(), 0u) << threads;
    if (threads == 1) {
      screened_ref = counting.screened_evals();
      exact_ref = counting.exact_evals();
    } else {
      EXPECT_EQ(counting.screened_evals(), screened_ref) << threads;
      EXPECT_EQ(counting.exact_evals(), exact_ref) << threads;
    }
  }
  SetGlobalThreadPoolSize(1);
}

// The metric's screening policy: screening off means zero fp32 evaluations;
// results agree bit for bit either way.
TEST(ScreenTest, ToggleDisablesScreeningEntirely) {
  PointSet pts = DensePoints(300, 8, /*seed=*/211);
  Dataset data(pts);
  EuclideanMetric base({.screening = false});
  {
    CountingMetric counting(&base);
    Gmm(data, counting, 8);
    EXPECT_EQ(counting.screened_evals(), 0u);
    EXPECT_EQ(counting.exact_evals(), 8u * pts.size());
  }
  // Jaccard never screens (ScreeningProfitable false), even when enabled.
  {
    JaccardMetric jaccard;
    CountingMetric counting(&jaccard);
    Dataset sparse(SparsePoints(150, /*seed=*/212));
    Gmm(sparse, counting, 8);
    EXPECT_EQ(counting.screened_evals(), 0u);
    EXPECT_EQ(counting.exact_evals(), 8u * sparse.size());
  }
}

}  // namespace
}  // namespace diverse
