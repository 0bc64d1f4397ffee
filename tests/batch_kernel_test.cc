// Equivalence, accounting, and determinism tests for the batched distance
// kernels (Metric::DistanceToMany and the exact ScreenedRelaxArgFarthest
// sweep over Dataset):
//   * batched results match the scalar Metric::Distance reference bit for
//     bit for all four metrics on dense, sparse, and mixed datasets,
//     including the one-sparse-query slot-table path of cosine and Jaccard
//     on edge-case rows (stored zeros, empty support, zero norms, 1e30 and
//     inf coordinates);
//   * CountingMetric adds exactly the number of evaluations a batched
//     kernel performs;
//   * batched parallel GMM selects the identical index sequence as the
//     scalar reference, at any thread count.

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "api/solve.h"
#include "core/dataset.h"
#include "core/gmm.h"
#include "core/metric.h"
#include "core/screen.h"
#include "core/sequential.h"
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

std::vector<std::unique_ptr<Metric>> AllMetrics(KernelPolicy policy = {}) {
  std::vector<std::unique_ptr<Metric>> metrics;
  metrics.push_back(std::make_unique<EuclideanMetric>(policy));
  metrics.push_back(std::make_unique<ManhattanMetric>(policy));
  metrics.push_back(std::make_unique<CosineMetric>(policy));
  metrics.push_back(std::make_unique<JaccardMetric>(policy));
  return metrics;
}

std::vector<PointSet> AllDatasets() {
  std::vector<PointSet> sets;
  sets.push_back(DensePoints(60, 5, /*seed=*/11));
  sets.push_back(SparsePoints(60, /*seed=*/12));
  sets.push_back(MixedPoints(60, 12, /*seed=*/13));
  return sets;
}

TEST(BatchKernelTest, DistanceToManyMatchesScalarAllMetricsAllLayouts) {
  for (const PointSet& pts : AllDatasets()) {
    Dataset data(pts);
    for (const auto& metric : AllMetrics()) {
      const Point& q = pts[7];
      std::vector<double> out(pts.size());
      metric->DistanceToMany(q, data, 0, out);
      for (size_t i = 0; i < pts.size(); ++i) {
        EXPECT_EQ(out[i], metric->Distance(pts[i], q))
            << metric->Name() << " row " << i;
      }
    }
  }
}

TEST(BatchKernelTest, DistanceToManySupportsSubranges) {
  PointSet pts = MixedPoints(40, 10, /*seed=*/21);
  Dataset data(pts);
  EuclideanMetric metric;
  const Point& q = pts[0];
  std::vector<double> out(17);
  metric.DistanceToMany(q, data, 5, out);
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], metric.Distance(pts[5 + i], q));
  }
}

TEST(BatchKernelTest, DistanceToManyAcceptsExternalQuery) {
  PointSet pts = DensePoints(30, 3, /*seed=*/22);
  Dataset data(pts);
  CosineMetric metric;
  Point q = Point::Dense3(0.3f, 0.9f, 0.1f);  // not a dataset row
  std::vector<double> out(pts.size());
  metric.DistanceToMany(q, data, 0, out);
  for (size_t i = 0; i < pts.size(); ++i) {
    EXPECT_EQ(out[i], metric.Distance(pts[i], q));
  }
}

// --- One sparse query against many rows -----------------------------------
// Cosine and Jaccard score a sparse query through a per-thread slot table
// (dims up to 2^14) and fall back to the per-pair merge above that. Both
// must reproduce Distance bit for bit on every row layout, split across
// ranges at any pool size, and leave the table clean for the next query.

// The bit pattern of `d`, with every NaN mapped to one pattern, so
// EXPECT_EQ compares bits and NaN matches NaN.
uint64_t Bits(double d) {
  return std::isnan(d) ? ~uint64_t{0} : std::bit_cast<uint64_t>(d);
}

Point SparseOf(std::vector<uint32_t> indices, std::vector<float> values,
               uint32_t dim) {
  return Point::Sparse(std::move(indices), std::move(values), dim);
}

// A sparse vector with each of the first `span` coordinates present with
// probability `density`, values in [-1, 2).
Point RandomSparse(Rng& rng, uint32_t dim, uint32_t span, double density) {
  std::vector<uint32_t> indices;
  std::vector<float> values;
  for (uint32_t j = 0; j < span; ++j) {
    if (rng.NextDouble() < density) {
      indices.push_back(j);
      values.push_back(static_cast<float>(3.0 * rng.NextDouble() - 1.0));
    }
  }
  return SparseOf(std::move(indices), std::move(values), dim);
}

// Rows and queries whose distances take the kernels' edge conventions, in
// order: empty support, stored zeros only (zero norm), one stored zero,
// all negative, 1e30f coordinates, an inf coordinate, the last coordinate.
PointSet EdgeVectors(uint32_t dim) {
  const float inf = std::numeric_limits<float>::infinity();
  PointSet v;
  v.push_back(SparseOf({}, {}, dim));
  v.push_back(SparseOf({3, 40, 77}, {0.0f, 0.0f, 0.0f}, dim));
  v.push_back(SparseOf({3, 5, 100}, {0.0f, 1.5f, -2.0f}, dim));
  v.push_back(SparseOf({1, 5, 9, 64}, {-1.0f, -0.5f, -3.0f, -2.0f}, dim));
  v.push_back(SparseOf({5, 9, 100}, {1e30f, 2.0f, 1e30f}, dim));
  v.push_back(SparseOf({3, 9, 40}, {inf, 1.0f, 2.0f}, dim));
  v.push_back(SparseOf({dim - 1}, {4.0f}, dim));
  return v;
}

// ≥600 rows, so the sweep splits into several pool ranges: random sparse
// rows with every edge vector interleaved, and with every seventh row
// dense when `mixed`.
PointSet OneQueryRows(uint32_t dim, bool mixed, uint64_t seed) {
  Rng rng(seed);
  PointSet edge = EdgeVectors(dim);
  PointSet pts;
  for (size_t i = 0; i < 640; ++i) {
    if (i % 40 == 0) {
      pts.push_back(edge[(i / 40) % edge.size()]);
    } else if (mixed && i % 7 == 0) {
      std::vector<float> values(dim, 0.0f);
      for (uint32_t j = 0; j < 200; ++j) {
        values[j] = static_cast<float>(rng.NextDouble());
      }
      pts.push_back(Point::Dense(std::move(values)));
    } else {
      pts.push_back(RandomSparse(rng, dim, 400, 0.1));
    }
  }
  return pts;
}

// Queries run back to back: a ~120-term query, the edge vectors, a short
// query after the long one (a stale slot would score false hits), and
// rows of the dataset itself.
PointSet OneQueryQueries(const PointSet& rows, uint32_t dim, uint64_t seed) {
  Rng rng(seed);
  PointSet qs;
  qs.push_back(RandomSparse(rng, dim, 400, 0.3));
  for (const Point& e : EdgeVectors(dim)) qs.push_back(e);
  qs.push_back(RandomSparse(rng, dim, 400, 0.3));
  qs.push_back(SparseOf({2}, {1.0f}, dim));
  qs.push_back(rows[1]);
  qs.push_back(rows[40]);
  return qs;
}

void ExpectOneQueryMatchesScalar(const Metric& metric, const PointSet& rows,
                                 const PointSet& queries, size_t begin,
                                 size_t count) {
  Dataset data(rows);
  std::vector<double> out(count);
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const Point& q = queries[qi];
    metric.DistanceToMany(q, data, begin, out);
    for (size_t i = 0; i < count; ++i) {
      EXPECT_EQ(Bits(out[i]), Bits(metric.Distance(rows[begin + i], q)))
          << metric.Name() << " query " << qi << " row " << begin + i;
    }
  }
}

TEST(BatchKernelTest, OneSparseQueryMatchesScalarAllSparseAndMixed) {
  const uint32_t dim = 512;
  CosineMetric cosine;
  JaccardMetric jaccard;
  const Metric* metrics[] = {&cosine, &jaccard};
  for (size_t threads : {1, 2, 8}) {
    SCOPED_TRACE(testing::Message() << "threads " << threads);
    SetGlobalThreadPoolSize(threads);
    for (bool mixed : {false, true}) {
      SCOPED_TRACE(mixed ? "mixed rows" : "all-sparse rows");
      PointSet rows = OneQueryRows(dim, mixed, /*seed=*/51);
      PointSet queries = OneQueryQueries(rows, dim, /*seed=*/52);
      for (const Metric* metric : metrics) {
        ExpectOneQueryMatchesScalar(*metric, rows, queries, 0, rows.size());
      }
    }
  }
  SetGlobalThreadPoolSize(1);
}

TEST(BatchKernelTest, OneSparseQuerySubrangesMatchScalar) {
  const uint32_t dim = 512;
  PointSet rows = OneQueryRows(dim, /*mixed=*/true, /*seed=*/53);
  PointSet queries = OneQueryQueries(rows, dim, /*seed=*/54);
  CosineMetric cosine;
  JaccardMetric jaccard;
  const Metric* metrics[] = {&cosine, &jaccard};
  for (size_t threads : {1, 2, 8}) {
    SetGlobalThreadPoolSize(threads);
    for (const Metric* metric : metrics) {
      ExpectOneQueryMatchesScalar(*metric, rows, queries, 37, 561);
      ExpectOneQueryMatchesScalar(*metric, rows, queries, 600, 1);
      ExpectOneQueryMatchesScalar(*metric, rows, queries, 5, 0);
    }
  }
  SetGlobalThreadPoolSize(1);
}

// Above the slot table's dimension cap the sweep takes the per-pair merge.
TEST(BatchKernelTest, OneSparseQueryAboveDirectIndexDimMatchesScalar) {
  const uint32_t dim = uint32_t{1} << 15;
  PointSet rows = OneQueryRows(dim, /*mixed=*/false, /*seed=*/55);
  PointSet queries = OneQueryQueries(rows, dim, /*seed=*/56);
  CosineMetric cosine;
  JaccardMetric jaccard;
  for (size_t threads : {1, 8}) {
    SetGlobalThreadPoolSize(threads);
    ExpectOneQueryMatchesScalar(cosine, rows, queries, 0, rows.size());
    ExpectOneQueryMatchesScalar(jaccard, rows, queries, 0, rows.size());
  }
  SetGlobalThreadPoolSize(1);
}

TEST(BatchKernelTest, ExactRelaxArgFarthestMatchesManualRelax) {
  for (const PointSet& pts : AllDatasets()) {
    Dataset data(pts);
    for (const auto& metric : AllMetrics({.screening = false})) {
      size_t n = pts.size();
      std::vector<double> dist(n, std::numeric_limits<double>::infinity());
      std::vector<size_t> assignment(n, 0);
      std::vector<double> ref_dist = dist;
      std::vector<size_t> ref_assignment = assignment;
      // Two relax rounds against different centers, mirroring GMM steps.
      size_t centers[2] = {3, 19};
      size_t got = 0;
      size_t want = 0;
      for (size_t rank = 0; rank < 2; ++rank) {
        const Point& c = pts[centers[rank]];
        got = ScreenedRelaxArgFarthest(*metric, data, centers[rank], data,
                                       dist, assignment, rank);
        double best = -std::numeric_limits<double>::infinity();
        for (size_t i = 0; i < n; ++i) {
          double d = metric->Distance(pts[i], c);
          if (d < ref_dist[i]) {
            ref_dist[i] = d;
            ref_assignment[i] = rank;
          }
          if (ref_dist[i] > best) {
            best = ref_dist[i];
            want = i;
          }
        }
      }
      EXPECT_EQ(got, want) << metric->Name();
      for (size_t i = 0; i < n; ++i) {
        EXPECT_NEAR(dist[i], ref_dist[i], 1e-12) << metric->Name();
        EXPECT_EQ(assignment[i], ref_assignment[i])
            << metric->Name() << " row " << i;
      }
    }
  }
}

TEST(BatchKernelTest, CountingMetricCountsBatchedEvaluationsExactly) {
  PointSet pts = DensePoints(50, 4, /*seed=*/31);
  Dataset data(pts);
  EuclideanMetric base({.screening = false});
  CountingMetric counting(&base);

  std::vector<double> out(30);
  counting.DistanceToMany(pts[0], data, 5, out);
  EXPECT_EQ(counting.count(), 30u);

  counting.Reset();
  std::vector<double> dist(pts.size(),
                           std::numeric_limits<double>::infinity());
  ScreenedRelaxArgFarthest(counting, data, 0, data, dist);
  EXPECT_EQ(counting.count(), pts.size());
}

TEST(BatchKernelTest, CountingMetricGmmCostIsExactlyKTimesN) {
  // dim >= 8: single-query sweeps below that are gated back to the exact
  // path (not enough per-row work to amortize a screen).
  PointSet pts = DensePoints(200, 8, /*seed=*/32);
  Dataset data(pts);
  EuclideanMetric base;
  size_t k = 9;
  // Exact path: exactly k * n exact evaluations, nothing screened.
  {
    EuclideanMetric exact({.screening = false});
    CountingMetric counting(&exact);
    Gmm(data, counting, k);
    EXPECT_EQ(counting.count(), k * pts.size());
    EXPECT_EQ(counting.screened_evals(), 0u);
  }
  // Screened path: the same k * n sweep positions go through the fp32
  // kernels, and the exact (rescue) count never exceeds the pre-screening
  // baseline. (On this workload most relax positions are certified skips.)
  {
    CountingMetric counting(&base);
    Gmm(data, counting, k);
    EXPECT_EQ(counting.screened_evals(), k * pts.size());
    EXPECT_LE(counting.exact_evals(), k * pts.size());
    EXPECT_GT(counting.exact_evals(), 0u);
    EXPECT_LT(counting.exact_evals(), counting.screened_evals());
  }
}

TEST(BatchKernelTest, GmmMatchesScalarReferenceAllMetricsAllLayouts) {
  for (const PointSet& pts : AllDatasets()) {
    Dataset data(pts);
    for (const auto& metric : AllMetrics()) {
      GmmResult batched = Gmm(data, *metric, 10);
      GmmResult scalar = GmmScalar(pts, *metric, 10);
      EXPECT_EQ(batched.selected, scalar.selected) << metric->Name();
      EXPECT_EQ(batched.assignment, scalar.assignment) << metric->Name();
      EXPECT_EQ(batched.range, scalar.range) << metric->Name();
      ASSERT_EQ(batched.selection_distance.size(),
                scalar.selection_distance.size());
      for (size_t j = 1; j < batched.selection_distance.size(); ++j) {
        EXPECT_NEAR(batched.selection_distance[j],
                    scalar.selection_distance[j], 1e-12);
      }
    }
  }
}

// The acceptance gate of the refactor: the batched parallel GMM must select
// the identical index sequence as the scalar per-pair reference, on an
// input large enough that the sweeps actually split into parallel ranges,
// and identically at 1 and at several worker threads.
TEST(BatchKernelTest, ParallelGmmIndexSequenceIsDeterministic) {
  EuclideanMetric metric;
  PointSet pts = DensePoints(20000, 4, /*seed=*/41);
  Dataset data(pts);
  size_t k = 16;

  GmmResult scalar = GmmScalar(pts, metric, k);

  SetGlobalThreadPoolSize(1);
  GmmResult one_thread = Gmm(data, metric, k);
  SetGlobalThreadPoolSize(4);
  GmmResult four_threads = Gmm(data, metric, k);
  SetGlobalThreadPoolSize(7);
  GmmResult seven_threads = Gmm(data, metric, k);

  EXPECT_EQ(one_thread.selected, scalar.selected);
  EXPECT_EQ(four_threads.selected, scalar.selected);
  EXPECT_EQ(seven_threads.selected, scalar.selected);
  EXPECT_EQ(four_threads.assignment, scalar.assignment);
  EXPECT_EQ(four_threads.range, scalar.range);
}

}  // namespace
}  // namespace diverse
