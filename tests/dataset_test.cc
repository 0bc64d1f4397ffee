#include "core/dataset.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "comm/serialize.h"
#include "data/io.h"
#include "data/sparse_text.h"
#include "data/synthetic.h"
#include "util/rng.h"

namespace diverse {
namespace {

PointSet MixedPoints(size_t n, size_t dim, uint64_t seed) {
  Rng rng(seed);
  PointSet pts;
  for (size_t i = 0; i < n; ++i) {
    if (i % 2 == 0) {
      std::vector<float> values(dim);
      for (float& v : values) v = static_cast<float>(rng.NextDouble());
      pts.push_back(Point::Dense(std::move(values)));
    } else {
      std::vector<uint32_t> indices;
      std::vector<float> values;
      for (uint32_t j = 0; j < dim; ++j) {
        if (rng.NextDouble() < 0.3) {
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

TEST(DatasetTest, DenseConstruction) {
  PointSet pts = GenerateUniformCube(25, 4, /*seed=*/1);
  Dataset data(pts);
  EXPECT_EQ(data.size(), 25u);
  EXPECT_EQ(data.dim(), 4u);
  for (size_t i = 0; i < pts.size(); ++i) {
    EXPECT_FALSE(data.row_is_sparse(i));
    EXPECT_EQ(data.point(i), pts[i]);
    EXPECT_EQ(data.norm(i), pts[i].norm());
    kernels::VecView row = data.row(i);
    ASSERT_EQ(row.nnz, 4u);
    EXPECT_EQ(row.dim, 4u);
    for (size_t j = 0; j < 4; ++j) {
      EXPECT_EQ(row.values[j], pts[i].dense_values()[j]);
    }
  }
}

TEST(DatasetTest, SparseConstruction) {
  SparseTextOptions opts;
  opts.n = 30;
  opts.seed = 2;
  PointSet docs = GenerateSparseTextDataset(opts);
  Dataset data(docs);
  EXPECT_EQ(data.size(), docs.size());
  EXPECT_EQ(data.dim(), docs[0].dim());
  for (size_t i = 0; i < docs.size(); ++i) {
    ASSERT_TRUE(data.row_is_sparse(i));
    kernels::VecView row = data.row(i);
    ASSERT_EQ(row.nnz, docs[i].nnz());
    EXPECT_EQ(row.norm, docs[i].norm());
    for (size_t j = 0; j < row.nnz; ++j) {
      EXPECT_EQ(row.indices[j], docs[i].sparse_indices()[j]);
      EXPECT_EQ(row.values[j], docs[i].sparse_values()[j]);
    }
  }
}

TEST(DatasetTest, MixedRepresentationRows) {
  PointSet pts = MixedPoints(20, 8, /*seed=*/3);
  Dataset data(pts);
  for (size_t i = 0; i < pts.size(); ++i) {
    EXPECT_EQ(data.row_is_sparse(i), pts[i].is_sparse()) << "row " << i;
    EXPECT_EQ(data.point(i), pts[i]);
  }
}

TEST(DatasetTest, AppendMatchesFromPoints) {
  PointSet pts = MixedPoints(15, 6, /*seed=*/4);
  Dataset bulk(pts);
  Dataset incremental;
  EXPECT_TRUE(incremental.empty());
  for (const Point& p : pts) incremental.Append(p);
  ASSERT_EQ(incremental.size(), bulk.size());
  EXPECT_EQ(incremental.dim(), bulk.dim());
  for (size_t i = 0; i < pts.size(); ++i) {
    EXPECT_EQ(incremental.point(i), bulk.point(i));
    EXPECT_EQ(incremental.norm(i), bulk.norm(i));
  }
}

TEST(DatasetTest, ClearResetsDimension) {
  Dataset data;
  data.Append(Point::Dense2(1.0f, 2.0f));
  EXPECT_EQ(data.dim(), 2u);
  data.Clear();
  EXPECT_TRUE(data.empty());
  EXPECT_EQ(data.dim(), 0u);
  data.Append(Point::Dense3(1.0f, 2.0f, 3.0f));
  EXPECT_EQ(data.dim(), 3u);
}

// point(i) rebuilds each row's point from the columns: equal to the point
// the row came from, with a bit-identical norm.
void ExpectRowsRoundTrip(const Dataset& data, const PointSet& want,
                         const std::string& ctx) {
  ASSERT_EQ(data.size(), want.size()) << ctx;
  for (size_t i = 0; i < want.size(); ++i) {
    const Point p = data.point(i);
    EXPECT_EQ(p, want[i]) << ctx << " row " << i;
    EXPECT_EQ(p.norm(), want[i].norm()) << ctx << " row " << i;
    EXPECT_EQ(p.is_sparse(), want[i].is_sparse()) << ctx << " row " << i;
    EXPECT_EQ(p.dim(), want[i].dim()) << ctx << " row " << i;
  }
  EXPECT_EQ(data.points(), want) << ctx;
}

TEST(DatasetTest, PointRoundTripsDenseSparseAndMixedRows) {
  ExpectRowsRoundTrip(Dataset(GenerateUniformCube(12, 5, /*seed=*/5)),
                      GenerateUniformCube(12, 5, /*seed=*/5), "dense");
  const PointSet sparse = {
      Point::Sparse({}, {}, 7),                      // empty support
      Point::Sparse({1, 4}, {0.0f, 2.5f}, 7),        // a stored zero
      Point::Sparse({0, 6}, {-1.0f, 0.0f}, 7),       // trailing stored zero
      Point::Sparse({2, 3, 5}, {1.0f, 2.0f, 3.0f}, 7),
  };
  ExpectRowsRoundTrip(Dataset(sparse), sparse, "sparse");
  const PointSet mixed = MixedPoints(20, 8, /*seed=*/3);
  ExpectRowsRoundTrip(Dataset(mixed), mixed, "mixed");
}

// The aggregate statistics of `got` equal those of `want`, bit for bit.
void ExpectSameStats(const Dataset& got, const Dataset& want,
                     const std::string& ctx) {
  EXPECT_EQ(got.sparse_stats().rows, want.sparse_stats().rows) << ctx;
  EXPECT_EQ(got.sparse_stats().total_nnz, want.sparse_stats().total_nnz)
      << ctx;
  EXPECT_EQ(got.sparse_stats().max_nnz, want.sparse_stats().max_nnz) << ctx;
  EXPECT_EQ(got.screen_stats().min_positive_norm,
            want.screen_stats().min_positive_norm)
      << ctx;
  EXPECT_EQ(got.screen_stats().max_norm, want.screen_stats().max_norm) << ctx;
}

TEST(DatasetTest, PointRoundTripsOnGatheredRows) {
  PointSet pts = MixedPoints(16, 6, /*seed=*/9);
  pts[7] = Point::Sparse({}, {}, 6);  // a sparse row with nnz 0
  const Dataset data(pts);
  const std::vector<uint32_t> rows = {15, 0, 7, 3, 3, 8, 1, 7};
  Dataset gathered;
  gathered.AssignGatherColumnar(data, rows);
  PointSet want;
  for (uint32_t r : rows) want.push_back(pts[r]);
  ExpectRowsRoundTrip(gathered, want, "gathered");
  ExpectSameStats(gathered, Dataset(want), "gathered");
  EXPECT_EQ(gathered.dim(), data.dim());
  // Gathering into a dataset that already holds rows replaces them.
  gathered.AssignGatherColumnar(data, std::vector<uint32_t>{2, 7});
  ExpectRowsRoundTrip(gathered, {pts[2], pts[7]}, "regathered");
  ExpectSameStats(gathered, Dataset(PointSet{pts[2], pts[7]}), "regathered");
}

// The flat scan of the value pools names the same row as a scan of each
// row's coordinates, whichever kind of row holds the first bad value.
TEST(DatasetTest, FirstNonFiniteRowMatchesPerRowScanOnMixedRows) {
  // Even rows are dense, odd rows sparse. Row 5 is a sparse row with nnz
  // 0, and the rows made bad below (dense 4 and 10, sparse 3, 9 and the
  // last row 11) all store values; every case has clean rows before the
  // bad one.
  PointSet clean = MixedPoints(12, 5, /*seed=*/11);
  clean[3] = Point::Sparse({0, 2, 4}, {0.5f, -1.0f, 2.0f}, 5);
  clean[5] = Point::Sparse({}, {}, 5);
  clean[9] = Point::Sparse({1, 3}, {3.0f, 0.25f}, 5);
  clean[11] = Point::Sparse({4}, {-2.0f}, 5);
  ASSERT_FALSE(clean[4].is_sparse());
  ASSERT_FALSE(clean[10].is_sparse());
  EXPECT_EQ(FirstNonFiniteRow(Dataset(clean)), clean.size());
  EXPECT_EQ(FirstNonFiniteRow(Dataset()), 0u);
  const float bad_values[] = {std::numeric_limits<float>::quiet_NaN(),
                              std::numeric_limits<float>::infinity(),
                              -std::numeric_limits<float>::infinity()};
  const std::vector<std::vector<size_t>> bad_rows = {
      {4}, {3}, {11}, {9, 10}, {10, 3}, {4, 9}};
  for (float bad : bad_values) {
    for (const std::vector<size_t>& rows : bad_rows) {
      PointSet pts = clean;
      for (size_t r : rows) {
        const kernels::VecView v = pts[r].View();
        std::vector<float> values(v.values, v.values + v.nnz);
        values.back() = bad;
        pts[r] = v.sparse ? Point::Sparse(std::vector<uint32_t>(
                                              v.indices, v.indices + v.nnz),
                                          std::move(values), 5)
                          : Point::Dense(std::move(values));
      }
      size_t want = pts.size();
      for (size_t i = 0; i < pts.size() && want == pts.size(); ++i) {
        if (!PointIsFinite(pts[i])) want = i;
      }
      EXPECT_EQ(FirstNonFiniteRow(Dataset(pts)), want)
          << "value " << bad << ", first bad row " << rows[0];
    }
  }
}

TEST(DatasetTest, ConstructsFromPointSetRvalue) {
  const PointSet pts = GenerateUniformCube(10, 3, /*seed=*/5);
  PointSet copy = pts;
  const Dataset data(std::move(copy));
  ExpectRowsRoundTrip(data, pts, "rvalue");
}

TEST(DatasetTest, MemoryBytesHoldsOneCopyOfTheCoordinates) {
  // The columns are the only copy of the points: the footprint is the
  // coordinate bytes plus a row header and a norm per row, nowhere near a
  // second (per-point heap) copy of the coordinates.
  const size_t n = 100;
  const size_t dim = 16;
  const Dataset dense(GenerateUniformCube(n, dim, /*seed=*/6));
  const size_t dense_coords = n * dim * sizeof(float);
  EXPECT_GE(dense.MemoryBytes(), dense_coords);
  EXPECT_LE(dense.MemoryBytes(), sizeof(Dataset) + dense_coords + n * 32);

  SparseTextOptions opts;
  opts.n = n;
  opts.seed = 2;
  const Dataset sparse(GenerateSparseTextDataset(opts));
  const size_t sparse_coords = sparse.sparse_stats().total_nnz *
                               (sizeof(uint32_t) + sizeof(float));
  EXPECT_GE(sparse.MemoryBytes(), sparse_coords);
  EXPECT_LE(sparse.MemoryBytes(), sizeof(Dataset) + sparse_coords + n * 32);
}

// The screen stats recomputed from scratch over the row norms.
void ExpectScreenStatsMatchRecomputation(const Dataset& data,
                                         const std::string& ctx) {
  double min_positive = std::numeric_limits<double>::infinity();
  double max_norm = 0.0;
  for (size_t i = 0; i < data.size(); ++i) {
    if (data.norm(i) > 0.0) min_positive = std::min(min_positive, data.norm(i));
    max_norm = std::max(max_norm, data.norm(i));
  }
  EXPECT_EQ(data.screen_stats().min_positive_norm, min_positive) << ctx;
  EXPECT_EQ(data.screen_stats().max_norm, max_norm) << ctx;
}

TEST(DatasetTest, ScreenStatsTrackEveryMutation) {
  Dataset data;
  ExpectScreenStatsMatchRecomputation(data, "empty");
  EXPECT_EQ(data.screen_stats().min_positive_norm,
            std::numeric_limits<double>::infinity());
  // A zero row leaves min_positive_norm at +inf.
  data.Append(Point::Dense({0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f}));
  ExpectScreenStatsMatchRecomputation(data, "zero row");
  PointSet pts = MixedPoints(12, 6, /*seed=*/7);
  for (const Point& p : pts) {
    data.Append(p);
    ExpectScreenStatsMatchRecomputation(data, "append");
  }
  data = Dataset(MixedPoints(9, 6, /*seed=*/8));
  ExpectScreenStatsMatchRecomputation(data, "construct");
  Dataset gathered;
  std::vector<uint32_t> rows = {7, 2, 2, 5};
  gathered.AssignGatherColumnar(data, rows);
  ExpectScreenStatsMatchRecomputation(gathered, "gather");
  data.Clear();
  ExpectScreenStatsMatchRecomputation(data, "clear");
  EXPECT_EQ(data.screen_stats().max_norm, 0.0);
}

// The content-stamp contract: a Dataset that reaches a reader carries a
// stamp no other content ever had, or 0 (uncacheable), never a stale one.
// The loader and the wire decoder batch-append their rows and draw one
// stamp per parse.
TEST(DatasetTest, ContentStampIsFreshAfterEveryBatchAndMutation) {
  const PointSet pts = MixedPoints(10, 6, /*seed=*/9);
  const std::string path = ::testing::TempDir() + "/stamp.bin";
  ASSERT_TRUE(SavePointsBinary(pts, path));
  StatusOr<Dataset> first = TryLoadDatasetBinary(path);
  StatusOr<Dataset> second = TryLoadDatasetBinary(path);
  std::remove(path.c_str());
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_NE(first->content_stamp(), 0u);
  EXPECT_NE(second->content_stamp(), 0u);
  EXPECT_NE(first->content_stamp(), second->content_stamp());
  const uint64_t loaded = first->content_stamp();
  first->Append(pts[0]);
  EXPECT_NE(first->content_stamp(), 0u);
  EXPECT_NE(first->content_stamp(), loaded);
  EXPECT_NE(first->content_stamp(), second->content_stamp());

  WireRequest req;
  req.metric = "euclidean";
  req.part = Dataset(pts);
  StatusOr<WireRequest> decoded = TryDecodeWireRequest(EncodeWireRequest(req));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_NE(decoded->part.content_stamp(), 0u);
  EXPECT_NE(decoded->part.content_stamp(), req.part.content_stamp());
  const uint64_t decoded_stamp = decoded->part.content_stamp();
  decoded->part.Append(pts[1]);
  EXPECT_NE(decoded->part.content_stamp(), decoded_stamp);

  // A batch in progress is uncacheable, not stale; Restamp ends it.
  Dataset batch = Dataset(pts);
  const uint64_t built = batch.content_stamp();
  std::string record;
  AppendPointRecord(Point::Dense({1, 2, 3, 4, 5, 6}), &record);
  batch.AppendRecordRun(record, 1, 6, 0);
  EXPECT_EQ(batch.content_stamp(), 0u);
  batch.Restamp();
  EXPECT_NE(batch.content_stamp(), 0u);
  EXPECT_NE(batch.content_stamp(), built);
}

TEST(DatasetDeathTest, RejectsMismatchedDimensions) {
  Dataset data;
  data.Append(Point::Dense2(1.0f, 2.0f));
  EXPECT_DEATH(data.Append(Point::Dense3(1.0f, 2.0f, 3.0f)), "CHECK failed");
}

}  // namespace
}  // namespace diverse
