// Equivalence, accounting, and determinism tests for the blocked
// many-vs-many tile kernels (Metric::DistanceTile) and their consumers:
//   * a Q x R tile equals per-query DistanceToMany for all four metrics on
//     dense, sparse, and mixed layouts — bit-exact where the scalar merge
//     kernel is shared (any sparse side), and within 1e-9 relative error on
//     the dense SIMD lane path (which is in fact bit-exact by construction:
//     the lane kernels replay the scalar operation sequence per lane);
//   * odd tile edges: Q and R not multiples of the lane width, nonzero
//     offsets, strided output;
//   * CountingMetric adds exactly nq * nr per tile;
//   * the indexed kernels (Metric::DistanceRowsManyF32 / DistanceRowsMany)
//     equal the one-query sweeps bit for bit on scattered rows;
//   * the sparse query-block decode cache serves a second equal row range
//     of one query block without re-decoding;
//   * the tiled DistanceMatrix build matches the scalar per-pair build and
//     costs exactly n(n-1)/2 evaluations;
//   * GreedyMatchingOnDataset refill scans run on the compacted live rows
//     only: no used row's distance is ever recomputed;
//   * the chunked parallel pair scan selects the matrix reference's pairs
//     with the same exact/screened evaluation counts at 1/2/4 threads;
//   * the cluster-bounded pair scan selects exactly what the exhaustive
//     scan (indexing off) and the matrix reference select, on
//     clustered, uniform, all-duplicate, hub, sparse and L1 inputs, and
//     never pays more evaluations than the exhaustive scan where it prunes.
//   * Metric::CoveredPrefix equals the leading count of DistanceToMany
//     distances within the radius, for every metric, dense and sparse
//     queries and rows, radii on and one ulp off a row's distance, and
//     zero-norm, non-finite and multi-chunk rows; CountingMetric counts
//     the run plus the row that ended it.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/dataset.h"
#include "core/distance_matrix.h"
#include "core/metric.h"
#include "core/sequential.h"
#include "core/vector_kernels.h"
#include "data/sparse_text.h"
#include "data/synthetic.h"
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
  opts.vocab_size = 200;
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

std::vector<std::unique_ptr<Metric>> AllMetrics() {
  std::vector<std::unique_ptr<Metric>> metrics;
  metrics.push_back(std::make_unique<EuclideanMetric>());
  metrics.push_back(std::make_unique<ManhattanMetric>());
  metrics.push_back(std::make_unique<CosineMetric>());
  metrics.push_back(std::make_unique<JaccardMetric>());
  return metrics;
}

struct NamedLayout {
  const char* name;
  PointSet pts;
};

std::vector<NamedLayout> AllLayouts() {
  std::vector<NamedLayout> layouts;
  layouts.push_back({"dense", DensePoints(83, 6, /*seed=*/101)});
  layouts.push_back({"sparse", SparsePoints(83, /*seed=*/102)});
  layouts.push_back({"mixed", MixedPoints(83, 12, /*seed=*/103)});
  return layouts;
}

// Expects tile entry == reference, bit-exact when either side of the pair is
// sparse (shared scalar merge kernel), and within 1e-9 relative error on the
// dense-dense SIMD lane path.
void ExpectTileEntry(double got, double want, bool dense_pair,
                     const std::string& context) {
  if (!dense_pair) {
    EXPECT_EQ(got, want) << context;
    return;
  }
  double tol = 1e-9 * std::max(1.0, std::abs(want));
  EXPECT_NEAR(got, want, tol) << context;
}

TEST(TileKernelTest, TileMatchesPerQuerySweepsAllMetricsAllLayouts) {
  for (const NamedLayout& layout : AllLayouts()) {
    Dataset data(layout.pts);
    size_t n = data.size();
    // Odd edges: neither 13 nor 37 is a multiple of the 8-lane block, and
    // both begin offsets are nonzero.
    size_t q_begin = 5, nq = 13;
    size_t r_begin = 2, nr = 37;
    for (const auto& metric : AllMetrics()) {
      std::vector<double> tile(nq * nr, -1.0);
      metric->DistanceTile(data, q_begin, nq, data, r_begin, nr, tile.data(),
                           nr);
      std::vector<double> ref(n);
      for (size_t q = 0; q < nq; ++q) {
        metric->DistanceToMany(data.point(q_begin + q), data, 0, ref);
        for (size_t r = 0; r < nr; ++r) {
          bool dense_pair = !data.row_is_sparse(q_begin + q) &&
                            !data.row_is_sparse(r_begin + r);
          ExpectTileEntry(tile[q * nr + r], ref[r_begin + r], dense_pair,
                          metric->Name() + "/" + layout.name + " q=" +
                              std::to_string(q) + " r=" + std::to_string(r));
        }
      }
    }
  }
}

// The indexed kernels of the relax sweep give each row the value it gets
// alone — DistanceRowsManyF32 over a scattered list equals the same kernel
// called with that one row, and DistanceRowsMany equals the exact one-query
// sweep — bit for bit: every metric and layout, dense dims on both sides of
// the 16-coordinate SIMD cut of the direct dense path, and an odd count of
// scattered rows with a repeat. CountingMetric counts each row of the fp32
// kernel as one screened evaluation.
TEST(TileKernelTest, RowsManyMatchesToManyAllMetricsAllLayouts) {
  std::vector<NamedLayout> layouts = AllLayouts();
  layouts.push_back({"dense-dim16", DensePoints(83, 16, /*seed=*/108)});
  layouts.push_back({"dense-dim21", DensePoints(83, 21, /*seed=*/109)});
  for (const NamedLayout& layout : layouts) {
    Dataset data(layout.pts);
    const size_t n = data.size();
    std::vector<uint32_t> rows;
    for (size_t t = 0; t < 37; ++t) {
      rows.push_back(static_cast<uint32_t>((7 * t + 3) % n));
    }
    rows.push_back(rows[4]);
    for (const auto& metric : AllMetrics()) {
      for (size_t q : {size_t{0}, size_t{5}, n - 1}) {
        const std::string ctx = metric->Name() + "/" + layout.name +
                                " q=" + std::to_string(q);
        std::vector<float> want(rows.size());
        for (size_t t = 0; t < rows.size(); ++t) {
          metric->DistanceRowsManyF32(data, q, data,
                                      std::span<const uint32_t>(&rows[t], 1),
                                      &want[t]);
        }
        CountingMetric counting(metric.get());
        std::vector<float> got(rows.size(), -1.0f);
        counting.DistanceRowsManyF32(data, q, data, rows, got.data());
        EXPECT_EQ(counting.screened_evals(), rows.size()) << ctx;
        EXPECT_EQ(counting.exact_evals(), 0u) << ctx;
        std::vector<double> want_exact(n);
        metric->DistanceToMany(data.point(q), data, 0, want_exact);
        std::vector<double> got_exact(rows.size(), -1.0);
        metric->DistanceRowsMany(data, q, data, rows, got_exact.data());
        for (size_t t = 0; t < rows.size(); ++t) {
          EXPECT_EQ(std::bit_cast<uint32_t>(got[t]),
                    std::bit_cast<uint32_t>(want[t]))
              << ctx << " row " << rows[t];
          EXPECT_EQ(std::bit_cast<uint64_t>(got_exact[t]),
                    std::bit_cast<uint64_t>(want_exact[rows[t]]))
              << ctx << " exact row " << rows[t];
        }
      }
    }
  }
}

TEST(TileKernelTest, TileHonorsOutputStride) {
  PointSet pts = DensePoints(40, 5, /*seed=*/104);
  Dataset data(pts);
  EuclideanMetric metric;
  size_t nq = 7, nr = 9, stride = 23;
  std::vector<double> out(nq * stride, -7.0);
  metric.DistanceTile(data, 1, nq, data, 11, nr, out.data(), stride);
  for (size_t q = 0; q < nq; ++q) {
    for (size_t c = 0; c < stride; ++c) {
      if (c < nr) {
        EXPECT_EQ(out[q * stride + c],
                  metric.Distance(pts[1 + q], pts[11 + c]));
      } else {
        EXPECT_EQ(out[q * stride + c], -7.0) << "stride padding clobbered";
      }
    }
  }
}

TEST(TileKernelTest, TileIdenticalAtAnyThreadCount) {
  PointSet pts = DensePoints(500, 4, /*seed=*/105);
  Dataset data(pts);
  EuclideanMetric metric;
  size_t nq = 20, nr = 400;
  std::vector<std::vector<double>> results;
  for (size_t threads : {1u, 2u, 8u}) {
    SetGlobalThreadPoolSize(threads);
    std::vector<double> tile(nq * nr);
    metric.DistanceTile(data, 0, nq, data, 50, nr, tile.data(), nr);
    results.push_back(std::move(tile));
  }
  SetGlobalThreadPoolSize(1);
  EXPECT_EQ(results[0], results[1]);
  EXPECT_EQ(results[0], results[2]);
}

TEST(TileKernelTest, BaseClassFallbackMatchesScalarDistance) {
  // A metric that overrides nothing exercises the Metric::DistanceTile
  // scalar fallback.
  class HammingLike final : public Metric {
   public:
    double Distance(const Point& a, const Point& b) const override {
      return a == b ? 0.0 : 1.0;
    }
    std::string Name() const override { return "discrete"; }
  };
  PointSet pts = DensePoints(30, 3, /*seed=*/106);
  pts[7] = pts[3];  // one duplicate pair
  Dataset data(pts);
  HammingLike metric;
  std::vector<double> tile(6 * 10);
  metric.DistanceTile(data, 2, 6, data, 5, 10, tile.data(), 10);
  for (size_t q = 0; q < 6; ++q) {
    for (size_t r = 0; r < 10; ++r) {
      EXPECT_EQ(tile[q * 10 + r], metric.Distance(pts[2 + q], pts[5 + r]));
    }
  }
}

TEST(TileKernelTest, CountingMetricCountsTilesExactly) {
  PointSet pts = DensePoints(60, 4, /*seed=*/107);
  Dataset data(pts);
  EuclideanMetric base;
  CountingMetric counting(&base);

  std::vector<double> tile(11 * 17);
  counting.DistanceTile(data, 3, 11, data, 20, 17, tile.data(), 17);
  EXPECT_EQ(counting.count(), 11u * 17u);
}

TEST(TileKernelTest, DistanceMatrixTiledMatchesScalarAllMetricsAllLayouts) {
  for (const NamedLayout& layout : AllLayouts()) {
    Dataset data(layout.pts);
    size_t n = data.size();
    for (const auto& metric : AllMetrics()) {
      DistanceMatrix tiled(data, *metric);
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(tiled.at(i, i), 0.0);
        for (size_t j = i + 1; j < n; ++j) {
          bool dense_pair =
              !data.row_is_sparse(i) && !data.row_is_sparse(j);
          double want = metric->Distance(layout.pts[i], layout.pts[j]);
          ExpectTileEntry(tiled.at(i, j), want, dense_pair,
                          metric->Name() + std::string("/") + layout.name);
          EXPECT_EQ(tiled.at(i, j), tiled.at(j, i));
        }
      }
    }
  }
}

TEST(TileKernelTest, DistanceMatrixBuildCostsExactlyAllPairs) {
  // Span a few block boundaries (block size 128): n = 300 has diagonal and
  // off-diagonal blocks plus ragged edges.
  PointSet pts = DensePoints(300, 3, /*seed=*/110);
  EuclideanMetric base;
  CountingMetric counting(&base);
  Dataset data(pts);
  DistanceMatrix d(data, counting);
  EXPECT_EQ(counting.count(), pts.size() * (pts.size() - 1) / 2);
  // And the span constructor's tiled path agrees with it entry for entry.
  DistanceMatrix from_span(std::span<const Point>(pts), base);
  for (size_t i = 0; i < pts.size(); ++i) {
    for (size_t j = 0; j < pts.size(); ++j) {
      EXPECT_EQ(d.at(i, j), from_span.at(i, j));
    }
  }
}

TEST(TileKernelTest, DistanceMatrixDeterministicAtAnyThreadCount) {
  PointSet pts = MixedPoints(280, 10, /*seed=*/111);
  Dataset data(pts);
  CosineMetric metric;
  SetGlobalThreadPoolSize(1);
  DistanceMatrix one(data, metric);
  SetGlobalThreadPoolSize(8);
  DistanceMatrix eight(data, metric);
  SetGlobalThreadPoolSize(1);
  for (size_t i = 0; i < pts.size(); ++i) {
    for (size_t j = 0; j < pts.size(); ++j) {
      EXPECT_EQ(one.at(i, j), eight.at(i, j));
    }
  }
}

// A hub far from a tight cluster makes every top-buffer pair share the hub:
// after the first chosen pair both endpoints are dead, the buffer runs dry,
// and the matching must rescan. The refill must only touch the live rows —
// the exhaustive scan (indexing off) pays exactly live*(live-1)/2
// additional evaluations, with no distance to a used row recomputed, and
// the cluster-bounded scan never pays more than that.
TEST(TileKernelTest, GreedyMatchingRefillScansOnlyLiveRows) {
  size_t n = 70;
  Rng rng(112);
  PointSet pts;
  // Tight cluster near the origin...
  for (size_t i = 0; i + 1 < n; ++i) {
    pts.push_back(Point::Dense2(static_cast<float>(rng.NextDouble()),
                                static_cast<float>(rng.NextDouble())));
  }
  // ...plus one distant hub: all n-1 hub pairs dominate every buffer slot
  // (buffer cap for k=4 is max(4k^2, 64) = 64 < n-1 = 69).
  pts.push_back(Point::Dense2(1e6f, 1e6f));

  EuclideanMetric base;
  Dataset data(pts);
  // Initial scan: n(n-1)/2. One refill over the 68 live rows after the hub
  // pair is consumed: 68*67/2. Nothing else.
  uint64_t initial = static_cast<uint64_t>(n) * (n - 1) / 2;
  uint64_t refill = static_cast<uint64_t>(n - 2) * (n - 3) / 2;

  // Exact path: every scanned pair is an exact evaluation.
  std::vector<size_t> chosen;
  {
    EuclideanMetric exact(
        {.screening = false, .indexing = false});
    CountingMetric counting(&exact);
    chosen = GreedyMatchingOnDataset(data, counting, 4);
    EXPECT_EQ(chosen.size(), 4u);
    EXPECT_EQ(counting.count(), initial + refill);
    EXPECT_EQ(counting.screened_evals(), 0u);
  }

  // Screened path: the same pairs are screened in fp32 and only the pairs
  // the buffer could keep are re-evaluated exactly — never more than the
  // pre-screening baseline, and the selection is unchanged.
  {
    EuclideanMetric exhaustive({.indexing = false});
    CountingMetric counting(&exhaustive);
    std::vector<size_t> screened = GreedyMatchingOnDataset(data, counting, 4);
    EXPECT_EQ(screened, chosen);
    EXPECT_EQ(counting.screened_evals(), initial + refill);
    EXPECT_LE(counting.exact_evals(), initial + refill);
    EXPECT_GT(counting.exact_evals(), 0u);
  }

  // The cluster-bounded scan (clustering and center distances included)
  // selects the same pairs for at most the exhaustive scan's evaluations,
  // unscreened and screened.
  {
    EuclideanMetric unscreened({.screening = false});
    CountingMetric counting(&unscreened);
    EXPECT_EQ(GreedyMatchingOnDataset(data, counting, 4), chosen);
    EXPECT_LE(counting.count(), initial + refill);
    EXPECT_EQ(counting.screened_evals(), 0u);
  }
  {
    CountingMetric counting(&base);
    EXPECT_EQ(GreedyMatchingOnDataset(data, counting, 4), chosen);
    EXPECT_LE(counting.screened_evals(), initial + refill);
    EXPECT_LE(counting.exact_evals(), initial + refill);
  }

  // Same selection as the matrix reference.
  DistanceMatrix d(std::span<const Point>(pts), base);
  EXPECT_EQ(chosen, GreedyMatchingOnMatrix(d, 4));
}

// The dataset pair scan runs its query blocks as chunks on the thread pool;
// the chunk count depends only on the input, so the selection and both
// evaluation counts must be identical at every pool size, with and without
// screening, for the cluster-bounded and the exhaustive scan, and the
// selection must equal the matrix reference.
struct MatchingRun {
  std::vector<size_t> chosen;
  uint64_t exact = 0;
  uint64_t screened = 0;
};

// The built-in `metric` rebuilt with screening and indexing on or off.
std::unique_ptr<Metric> WithTiers(const Metric& metric, bool screening,
                                  bool indexing) {
  return MakeMetricByName(metric.Name(),
                          {.screening = screening, .indexing = indexing});
}

MatchingRun CountedMatching(const Dataset& data, const Metric& base, size_t k,
                            size_t threads, bool screening,
                            bool indexing = true) {
  SetGlobalThreadPoolSize(threads);
  const auto metric = WithTiers(base, screening, indexing);
  CountingMetric counting(metric.get());
  MatchingRun run;
  run.chosen = GreedyMatchingOnDataset(data, counting, k);
  run.exact = counting.exact_evals();
  run.screened = counting.screened_evals();
  SetGlobalThreadPoolSize(1);
  return run;
}

// Also checks that the bounded scan pays no more evaluations, exact plus
// screened, than the exhaustive one: both inputs here are clustered.
void ExpectMatchingIdenticalAtAnyThreadCount(const PointSet& pts, size_t k) {
  EuclideanMetric base;
  Dataset data(pts);
  DistanceMatrix d(std::span<const Point>(pts), base);
  const std::vector<size_t> reference = GreedyMatchingOnMatrix(d, k);
  for (bool screening : {false, true}) {
    SCOPED_TRACE(screening ? "screened" : "exact");
    MatchingRun exhaustive;
    for (bool indexing : {false, true}) {
      SCOPED_TRACE(indexing ? "bounded" : "exhaustive");
      const MatchingRun one =
          CountedMatching(data, base, k, 1, screening, indexing);
      EXPECT_EQ(one.chosen, reference);
      for (size_t threads : {2, 4}) {
        SCOPED_TRACE(threads);
        const MatchingRun many =
            CountedMatching(data, base, k, threads, screening, indexing);
        EXPECT_EQ(many.chosen, reference);
        EXPECT_EQ(many.exact, one.exact);
        EXPECT_EQ(many.screened, one.screened);
      }
      if (!indexing) {
        exhaustive = one;
      } else {
        EXPECT_LE(one.exact + one.screened,
                  exhaustive.exact + exhaustive.screened);
      }
    }
  }
}

TEST(TileKernelTest, GreedyMatchingDeterministicAtAnyThreadCount) {
  // 1200 rows = 19 query blocks of 64: the scan splits into 16 chunks.
  ExpectMatchingIdenticalAtAnyThreadCount(
      GenerateGaussianBlobs(1200, 12, 16, 0.05, /*seed=*/113), /*k=*/9);
}

// The hub construction of GreedyMatchingRefillScansOnlyLiveRows at a scale
// where both the initial scan and the refill run on many chunks.
TEST(TileKernelTest, GreedyMatchingRefillDeterministicAtAnyThreadCount) {
  PointSet pts = GenerateGaussianBlobs(699, 1, 16, 0.05, /*seed=*/114);
  pts.push_back(Point::Dense(std::vector<float>(16, 1e3f)));
  // Buffer cap for k = 4 is 64 < 699 hub pairs: every kept pair shares the
  // hub, so the second pick needs a refill over the 698 live rows.
  const uint64_t n = pts.size();
  const uint64_t all_pairs = n * (n - 1) / 2 + (n - 2) * (n - 3) / 2;
  ExpectMatchingIdenticalAtAnyThreadCount(pts, 4);
  EuclideanMetric base;
  Dataset data(pts);
  // The exhaustive scan evaluates every live pair of both scans once.
  EXPECT_EQ(CountedMatching(data, base, 4, 4, false, false).exact, all_pairs);
  EXPECT_EQ(CountedMatching(data, base, 4, 4, true, false).screened,
            all_pairs);
  // The bounded scan evaluates at most that many.
  EXPECT_LE(CountedMatching(data, base, 4, 4, false).exact, all_pairs);
  EXPECT_LE(CountedMatching(data, base, 4, 4, true).screened, all_pairs);
}

// The cluster-bounded pair scan only skips cluster pairs whose certified
// bound is strictly below a cutoff, and the kept set is the top `cap` under
// a total order, so its selection must equal the exhaustive scan's and the
// matrix reference's on any input, unscreened and screened.
void ExpectBoundedScanMatchesExhaustive(const PointSet& pts,
                                        const Metric& metric, size_t k) {
  Dataset data(pts);
  DistanceMatrix d(data, metric);
  const std::vector<size_t> reference = GreedyMatchingOnMatrix(d, k);
  for (bool screening : {false, true}) {
    SCOPED_TRACE(screening ? "screened" : "exact");
    std::vector<size_t> exhaustive = GreedyMatchingOnDataset(
        data, *WithTiers(metric, screening, false), k);
    EXPECT_EQ(exhaustive, reference);
    EXPECT_EQ(
        GreedyMatchingOnDataset(data, *WithTiers(metric, screening, true), k),
        reference);
  }
}

TEST(TileKernelTest, BoundedPairScanMatchesExhaustiveOnBlobs) {
  EuclideanMetric metric;
  PointSet pts = GenerateGaussianBlobs(1500, 20, 8, 0.03, /*seed=*/116);
  ExpectBoundedScanMatchesExhaustive(pts, metric, 10);
  ExpectBoundedScanMatchesExhaustive(pts, metric, 9);  // odd k
  // The bound does prune here: the bounded scan pays fewer evaluations.
  Dataset data(pts);
  const MatchingRun bounded = CountedMatching(data, metric, 10, 1, true);
  const MatchingRun exhaustive =
      CountedMatching(data, metric, 10, 1, true, false);
  EXPECT_EQ(bounded.chosen, exhaustive.chosen);
  EXPECT_LT(bounded.exact + bounded.screened,
            exhaustive.exact + exhaustive.screened);
}

// Uniform data gives the bound little to prune; the answer must not move.
TEST(TileKernelTest, BoundedPairScanMatchesExhaustiveOnUniformCube) {
  EuclideanMetric metric;
  ExpectBoundedScanMatchesExhaustive(GenerateUniformCube(1200, 8, 117),
                                     metric, 12);
  ExpectBoundedScanMatchesExhaustive(GenerateUniformCube(900, 2, 118),
                                     metric, 7);
}

// Points of a thick ring: the heaviest pairs join far sides of clusters
// around the rim, so their distances come within a cluster radius of the
// cluster-pair bounds, and a bound that dropped either radius would skip
// pairs the greedy picks.
PointSet ThickRing(size_t n, double thickness, uint64_t seed) {
  Rng rng(seed);
  PointSet pts;
  for (size_t i = 0; i < n; ++i) {
    const double angle = 2.0 * M_PI * rng.NextDouble();
    const double radius = 1.0 + thickness * rng.NextDouble();
    pts.push_back(Point::Dense2(static_cast<float>(radius * std::cos(angle)),
                                static_cast<float>(radius * std::sin(angle))));
  }
  return pts;
}

TEST(TileKernelTest, BoundedPairScanMatchesExhaustiveOnThickRing) {
  EuclideanMetric metric;
  for (uint64_t seed : {125, 126, 127}) {
    SCOPED_TRACE(seed);
    for (size_t k : {4, 6, 10, 16}) {
      SCOPED_TRACE(k);
      ExpectBoundedScanMatchesExhaustive(ThickRing(1200, 0.15, seed), metric,
                                         k);
    }
  }
}

// All rows equal: every radius and distance is 0 and every pair ties, so
// nothing may be pruned and the (i, j) tie order alone decides.
TEST(TileKernelTest, BoundedPairScanMatchesExhaustiveOnDuplicateRows) {
  PointSet pts(300, Point::Dense({0.25f, -1.5f, 3.0f}));
  EuclideanMetric euclidean;
  ExpectBoundedScanMatchesExhaustive(pts, euclidean, 6);
  ExpectBoundedScanMatchesExhaustive(pts, euclidean, 7);
  CosineMetric cosine;
  ExpectBoundedScanMatchesExhaustive(pts, cosine, 8);
}

// The hub-plus-cluster layout forces a refill; the bounded refill clusters
// the live rows afresh.
TEST(TileKernelTest, BoundedPairScanMatchesExhaustiveOnHubRefill) {
  PointSet pts = GenerateGaussianBlobs(699, 1, 16, 0.05, /*seed=*/114);
  pts.push_back(Point::Dense(std::vector<float>(16, 1e3f)));
  EuclideanMetric metric;
  ExpectBoundedScanMatchesExhaustive(pts, metric, 4);
  ExpectBoundedScanMatchesExhaustive(pts, metric, 5);
}

TEST(TileKernelTest, BoundedPairScanMatchesExhaustiveOnSparseCosine) {
  CosineMetric metric;
  ExpectBoundedScanMatchesExhaustive(SparsePoints(700, 119), metric, 10);
  ExpectBoundedScanMatchesExhaustive(MixedPoints(400, 24, 120), metric, 9);
}

TEST(TileKernelTest, BoundedPairScanMatchesExhaustiveOnManhattan) {
  ManhattanMetric metric;
  ExpectBoundedScanMatchesExhaustive(
      GenerateGaussianBlobs(1000, 10, 6, 0.05, /*seed=*/121), metric, 11);
  ExpectBoundedScanMatchesExhaustive(SparsePoints(500, 122), metric, 8);
}

// k = n: every row is chosen (the odd tail included), in the same order.
TEST(TileKernelTest, BoundedPairScanMatchesExhaustiveWhenKIsN) {
  EuclideanMetric metric;
  ExpectBoundedScanMatchesExhaustive(
      GenerateGaussianBlobs(40, 4, 3, 0.05, /*seed=*/123), metric, 40);
  ExpectBoundedScanMatchesExhaustive(GenerateUniformCube(41, 3, 124), metric,
                                     41);
}

// Refill scans gather the live rows into a columnar-only scratch Dataset; a
// user-defined metric (base-class fallbacks only) must still run on it.
TEST(TileKernelTest, GreedyMatchingRefillWithUserDefinedMetric) {
  class Discrete final : public Metric {
   public:
    double Distance(const Point& a, const Point& b) const override {
      return a == b ? 0.0 : 1.0;
    }
    std::string Name() const override { return "discrete"; }
  };
  // All distances tie at 1, so the 64 kept pairs are (0, 1) ... (0, 64):
  // after the first pick the buffer is dry and the matching refills.
  PointSet pts = DensePoints(100, 3, /*seed=*/115);
  Discrete metric;
  DistanceMatrix d(std::span<const Point>(pts), metric);
  EXPECT_EQ(GreedyMatchingOnDataset(Dataset(pts), metric, 5),
            GreedyMatchingOnMatrix(d, 5));
}

// --- Sparse tile engine ----------------------------------------------------

// Sparse corpora at three layouts that force different probe strategies:
// a small vocabulary (direct-index slot table), a vocabulary beyond the
// direct-index cap (merge-walk), and heavily skewed nnz ratios (galloping).
// Results must be bit-identical to the scalar merge in every case.
PointSet SparseCorpus(size_t n, uint32_t vocab, size_t min_terms,
                      size_t max_terms, uint64_t seed) {
  SparseTextOptions opts;
  opts.n = n;
  opts.vocab_size = vocab;
  opts.min_terms = min_terms;
  opts.max_terms = max_terms;
  opts.seed = seed;
  return GenerateSparseTextDataset(opts);
}

void ExpectSparseTileMatchesScalar(const PointSet& queries_pts,
                                   const PointSet& data_pts,
                                   const std::string& label) {
  Dataset queries(queries_pts);
  Dataset data(data_pts);
  size_t nq = std::min<size_t>(13, queries.size());
  size_t nr = data.size() > 2 ? data.size() - 2 : data.size();
  size_t r_begin = data.size() - nr;
  for (const auto& metric : AllMetrics()) {
    std::vector<double> tile(nq * nr, -1.0);
    metric->DistanceTile(queries, 0, nq, data, r_begin, nr, tile.data(), nr);
    for (size_t q = 0; q < nq; ++q) {
      for (size_t r = 0; r < nr; ++r) {
        double want =
            metric->Distance(queries.point(q), data.point(r_begin + r));
        EXPECT_EQ(tile[q * nr + r], want)
            << label << "/" << metric->Name() << " q=" << q << " r=" << r;
      }
    }
  }
}

TEST(SparseTileTest, DirectIndexStrategyMatchesScalar) {
  // vocab 150 << direct-index cap: the slot table path.
  PointSet pts = SparseCorpus(120, 150, 5, 40, /*seed=*/201);
  ExpectSparseTileMatchesScalar(pts, pts, "direct");
}

TEST(SparseTileTest, MergeWalkStrategyMatchesScalar) {
  // vocab above kDirectIndexMaxDim (2^14): merge-walk probing.
  PointSet pts = SparseCorpus(90, 40000, 5, 30, /*seed=*/202);
  ExpectSparseTileMatchesScalar(pts, pts, "merge-walk");
}

TEST(SparseTileTest, GallopingSkewedNnzMatchesScalar) {
  // Tiny queries (3-5 terms) against wide rows (300-600 terms) over a large
  // vocabulary: the intersection walk gallops through the wider list; and
  // the reverse orientation gallops the other way.
  PointSet tiny = SparseCorpus(40, 30000, 3, 5, /*seed=*/203);
  PointSet wide = SparseCorpus(60, 30000, 300, 600, /*seed=*/204);
  ExpectSparseTileMatchesScalar(tiny, wide, "gallop-rows");
  ExpectSparseTileMatchesScalar(wide, tiny, "gallop-queries");
}

TEST(SparseTileTest, StoredZeroValuesKeepSupportSemantics) {
  // Sparse vectors may store explicit zeros; SupportJaccard counts them as
  // support and the merge kernels emit their (zero) terms. The decoded
  // presence bitmask must preserve that, not conflate stored zeros with
  // absent coordinates.
  PointSet pts;
  pts.push_back(Point::Sparse({1, 4, 9}, {0.0f, 2.0f, 0.0f}, 16));
  pts.push_back(Point::Sparse({1, 5, 9}, {3.0f, 0.0f, 1.0f}, 16));
  pts.push_back(Point::Sparse({0, 4, 5}, {0.0f, 0.0f, 0.0f}, 16));
  pts.push_back(Point::Sparse({2, 3, 7, 11}, {1.0f, 2.0f, 3.0f, 4.0f}, 16));
  for (int i = 0; i < 8; ++i) {
    pts.push_back(Point::Sparse({static_cast<uint32_t>(i), 12},
                                {static_cast<float>(i), 1.0f}, 16));
  }
  ExpectSparseTileMatchesScalar(pts, pts, "stored-zeros");
}

TEST(SparseTileTest, EmptySparseRowsAndSingletons) {
  PointSet pts;
  pts.push_back(Point::Sparse({}, {}, 8));  // empty support
  pts.push_back(Point::Sparse({3}, {2.0f}, 8));
  pts.push_back(Point::Sparse({}, {}, 8));
  pts.push_back(Point::Sparse({0, 7}, {1.0f, 1.0f}, 8));
  for (int i = 0; i < 6; ++i) {
    pts.push_back(Point::Sparse({static_cast<uint32_t>(i % 8)},
                                {static_cast<float>(i + 1)}, 8));
  }
  ExpectSparseTileMatchesScalar(pts, pts, "empty-singleton");
}

TEST(SparseTileTest, SparseStatsTrackAppendsAndClears) {
  Dataset d;
  d.Append(Point::Sparse({1, 3}, {1.0f, 2.0f}, 10));
  d.Append(Point::Dense({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}));
  d.Append(Point::Sparse({0, 2, 4, 6}, {1, 1, 1, 1}, 10));
  EXPECT_EQ(d.sparse_stats().rows, 2u);
  EXPECT_EQ(d.sparse_stats().total_nnz, 6u);
  EXPECT_EQ(d.sparse_stats().max_nnz, 4u);
  EXPECT_DOUBLE_EQ(d.sparse_stats().AvgNnz(), 3.0);
  d.Clear();
  EXPECT_EQ(d.sparse_stats().rows, 0u);
  EXPECT_EQ(d.sparse_stats().total_nnz, 0u);
}

TEST(SparseTileTest, CountingMetricCountsSparseTilesExactly) {
  PointSet pts = SparseCorpus(80, 200, 5, 40, /*seed=*/206);
  Dataset data(pts);
  CosineMetric base;
  CountingMetric counting(&base);
  std::vector<double> tile(9 * 33);
  counting.DistanceTile(data, 4, 9, data, 10, 33, tile.data(), 33);
  EXPECT_EQ(counting.count(), 9u * 33u);
}

// The sparse decode cache reuses query-block decodes across row ranges of
// one sweep. An all-sparse exact cosine tile decodes each center block once
// per (row-range, lane-width) shape; a second call on the next equal-size
// row range — the shape a thread's chunked sweep produces — must hit the
// cache instead of re-decoding.
TEST(SparseDecodeCache, ReusesQueryBlockDecodesAcrossRowRanges) {
  SetGlobalThreadPoolSize(1);
  CosineMetric metric;
  SparseTextOptions opts;
  opts.n = 4000;
  opts.vocab_size = 300;
  opts.seed = 361;
  Dataset data(GenerateSparseTextDataset(opts));
  size_t n = data.size();
  size_t half = n / 2;
  ASSERT_EQ(n, 2 * half);
  Dataset centers;
  for (size_t i = 0; i < 8; ++i) centers.Append(data.point(i * 11));
  // Both halves land in one 8 x n matrix through the output stride.
  std::vector<double> tile(8 * n, -1.0);
  ResetSparseQueryDecodeStats();
  metric.DistanceTile(centers, 0, 8, data, 0, half, tile.data(), n);
  uint64_t first_decodes = SparseQueryDecodeCount();
  EXPECT_GT(first_decodes, 0u);
  EXPECT_EQ(SparseQueryDecodeHits(), 0u);
  metric.DistanceTile(centers, 0, 8, data, half, half, tile.data() + half, n);
  // Same query block, same lane shape: the second range re-decodes nothing.
  EXPECT_EQ(SparseQueryDecodeCount(), first_decodes);
  EXPECT_GT(SparseQueryDecodeHits(), 0u);
  // The cached tiles match uncached one-query sweeps bit for bit.
  for (size_t q = 0; q < 8; ++q) {
    std::vector<double> row(n);
    metric.DistanceToMany(centers.point(q), data, 0, row);
    EXPECT_EQ(std::vector<double>(tile.begin() + q * n,
                                  tile.begin() + (q + 1) * n),
              row)
        << "center " << q;
  }
}

// Mixed dense/sparse rows, and an all-sparse corpus that runs every tile
// through the blocked sparse engine.
TEST(SparseTileTest, MixedTileThreadCountDeterminism) {
  for (const NamedLayout& layout :
       {NamedLayout{"mixed", MixedPoints(900, 14, /*seed=*/208)},
        NamedLayout{"sparse", SparseCorpus(900, 500, 5, 60, /*seed=*/207)}}) {
    Dataset data(layout.pts);
    for (const auto& metric : AllMetrics()) {
      std::vector<std::vector<double>> results;
      for (size_t threads : {1u, 2u, 8u}) {
        SetGlobalThreadPoolSize(threads);
        DistanceMatrix d(data, *metric);
        std::vector<double> flat;
        flat.reserve(data.size() * data.size());
        for (size_t i = 0; i < data.size(); ++i) {
          std::span<const double> row = d.row(i);
          flat.insert(flat.end(), row.begin(), row.end());
        }
        results.push_back(std::move(flat));
      }
      SetGlobalThreadPoolSize(1);
      EXPECT_EQ(results[0], results[1])
          << metric->Name() << "/" << layout.name;
      EXPECT_EQ(results[0], results[2])
          << metric->Name() << "/" << layout.name;
    }
  }
}

// --- CoveredPrefix ---------------------------------------------------------

// Overrides only Distance, so every kernel, CoveredPrefix included, is a
// Metric fallback.
class DistanceOnlyCosine final : public Metric {
 public:
  double Distance(const Point& a, const Point& b) const override {
    return cosine_.Distance(a, b);
  }
  std::string Name() const override { return "distance-only-cosine"; }

 private:
  CosineMetric cosine_;
};

// Checks CoveredPrefix(query, data, begin, limit, radius) against the
// leading count of DistanceToMany's distances within the radius, and
// CountingMetric's count against the run plus the row that ended it.
void ExpectCoveredPrefix(const Metric& metric, const Point& query,
                         const Dataset& data, size_t begin, size_t limit,
                         double radius, const std::string& ctx) {
  std::vector<double> d(limit - begin);
  metric.DistanceToMany(query, data, begin, d);
  size_t want = 0;
  while (want < d.size() && d[want] <= radius) ++want;
  const std::string at = ctx + " begin=" + std::to_string(begin) +
                         " limit=" + std::to_string(limit) +
                         " radius=" + std::to_string(radius);
  EXPECT_EQ(metric.CoveredPrefix(query, data, begin, limit, radius), want)
      << at;
  CountingMetric counting(&metric);
  EXPECT_EQ(counting.CoveredPrefix(query, data, begin, limit, radius), want)
      << at;
  EXPECT_EQ(counting.exact_evals(), want + (begin + want < limit ? 1 : 0))
      << at;
}

std::vector<std::unique_ptr<Metric>> CoveredPrefixMetrics() {
  std::vector<std::unique_ptr<Metric>> metrics = AllMetrics();
  metrics.push_back(std::make_unique<DistanceOnlyCosine>());
  return metrics;
}

TEST(CoveredPrefixTest, MatchesLeadingDistanceToManyCount) {
  constexpr uint32_t kDim = 200;
  const float inf = std::numeric_limits<float>::infinity();
  PointSet text = SparseCorpus(30, kDim, 5, 40, /*seed=*/301);
  Rng rng(302);
  auto dense = [&](float scale) {
    std::vector<float> values(kDim);
    for (float& v : values) v = scale * static_cast<float>(rng.NextDouble());
    return Point::Dense(std::move(values));
  };
  // A sparse row of 150 terms spans three 64-term chunks of the slot walk.
  std::vector<uint32_t> long_indices;
  std::vector<float> long_values;
  for (uint32_t j = 0; j < kDim; ++j) {
    if (j % 4 != 3) {
      long_indices.push_back(j);
      long_values.push_back(0.25f + static_cast<float>(rng.NextDouble()));
    }
  }
  const Point long_row = Point::Sparse(long_indices, long_values, kDim);
  ASSERT_GT(long_row.View().nnz, 128u);
  const Point zero_sparse = Point::Sparse({}, {}, kDim);
  const Point zero_dense = Point::Dense(std::vector<float>(kDim, 0.0f));
  // inf on a term of text[0] gives the sparse queries holding that term an
  // infinite or NaN dot; on a term no sparse query holds, it only makes
  // the norm infinite (a miss adds no 0 * inf term).
  const Point inf_shared = Point::Sparse({text[0].View().indices[0]},
                                         {inf}, kDim);
  auto holds = [](const Point& p, uint32_t j) {
    const kernels::VecView v = p.View();
    return std::binary_search(v.indices, v.indices + v.nnz, j);
  };
  uint32_t lone = 3;  // the long row holds no index j with j % 4 == 3
  while (holds(text[0], lone) || holds(text[5], lone)) lone += 4;
  ASSERT_LT(lone, kDim);
  const Point inf_alone = Point::Sparse({lone}, {inf}, kDim);
  std::vector<float> inf_dense_values(kDim, 0.5f);
  inf_dense_values[7] = inf;
  const Point inf_dense = Point::Dense(inf_dense_values);

  // Runs pass through the special rows: the queries' copies first, then
  // text, then every special row, then more text.
  PointSet rows = {text[0], text[0], text[1]};
  rows.insert(rows.end(), text.begin() + 2, text.begin() + 12);
  for (const Point& p : {long_row, zero_sparse, inf_shared, dense(1.0f),
                         long_row, inf_alone, zero_dense, dense(3.0f),
                         inf_dense, text[0]}) {
    rows.push_back(p);
  }
  rows.insert(rows.end(), text.begin() + 12, text.end());
  const Dataset data(rows);
  const size_t n = data.size();

  const PointSet queries = {text[0],  text[5],     long_row,
                            inf_shared, zero_sparse, dense(1.0f),
                            zero_dense};
  const double radii_fixed[] = {0.0, -1.0, M_PI / 4, M_PI, 3.5,
                                std::numeric_limits<double>::infinity()};
  for (const auto& metric : CoveredPrefixMetrics()) {
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      const Point& query = queries[qi];
      const std::string ctx = metric->Name() + " query " + std::to_string(qi);
      std::vector<double> d(n);
      metric->DistanceToMany(query, data, 0, d);
      // The reference is the scalar Distance's (a miss of the slot walk adds
      // no 0 * inf term).
      for (size_t i = 0; i < n; ++i) {
        const double want = metric->Distance(query, data.point(i));
        if (std::isnan(want)) {
          EXPECT_TRUE(std::isnan(d[i])) << ctx << " row " << i;
        } else {
          EXPECT_EQ(std::bit_cast<uint64_t>(d[i]),
                    std::bit_cast<uint64_t>(want))
              << ctx << " row " << i;
        }
      }
      // Every row's distance, and one ulp to either side.
      std::vector<double> radii(std::begin(radii_fixed),
                                std::end(radii_fixed));
      for (double r : d) {
        if (std::isnan(r)) continue;
        radii.push_back(r);
        radii.push_back(std::nextafter(r, -1.0));
        radii.push_back(std::nextafter(r, 4.0));
      }
      for (size_t begin = 0; begin <= n; ++begin) {
        for (double radius : radii) {
          ExpectCoveredPrefix(*metric, query, data, begin, n, radius, ctx);
          ExpectCoveredPrefix(*metric, query, data, begin,
                              std::min(n, begin + 5), radius, ctx);
        }
      }
      // begin == limit inside the data.
      ExpectCoveredPrefix(*metric, query, data, 7, 7, 4.0, ctx);
    }
  }
}

// Runs longer than the base implementation's 16-to-256-row blocks, sparse
// and dense, ended by a miss inside a block and by the limit.
TEST(CoveredPrefixTest, LongRunsMatchLeadingDistanceToManyCount) {
  PointSet text = SparseCorpus(2, 200, 20, 40, /*seed=*/303);
  for (const Point& center : {text[0], DensePoints(1, 200, 304)[0]}) {
    PointSet rows(700, center);
    rows[500] = text[1];
    const Dataset data(rows);
    for (const auto& metric : CoveredPrefixMetrics()) {
      const std::string ctx =
          metric->Name() + (center.View().is_sparse() ? " sparse" : " dense");
      EXPECT_EQ(metric->CoveredPrefix(center, data, 0, data.size(), 1e-7),
                500u)
          << ctx;
      for (size_t begin : {size_t{0}, size_t{501}}) {
        for (double radius : {0.0, 1e-7}) {
          ExpectCoveredPrefix(*metric, center, data, begin, data.size(),
                              radius, ctx);
        }
      }
    }
  }
}

}  // namespace
}  // namespace diverse
