#include "core/dataset.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

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
  Dataset data = Dataset::FromPoints(pts);
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
  Dataset data = Dataset::FromPoints(docs);
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
  Dataset data = Dataset::FromPoints(pts);
  for (size_t i = 0; i < pts.size(); ++i) {
    EXPECT_EQ(data.row_is_sparse(i), pts[i].is_sparse()) << "row " << i;
    EXPECT_EQ(data.point(i), pts[i]);
  }
}

TEST(DatasetTest, AppendMatchesFromPoints) {
  PointSet pts = MixedPoints(15, 6, /*seed=*/4);
  Dataset bulk = Dataset::FromPoints(pts);
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

TEST(DatasetTest, OwningConstructorKeepsPoints) {
  PointSet pts = GenerateUniformCube(10, 3, /*seed=*/5);
  PointSet copy = pts;
  Dataset data(std::move(copy));
  ASSERT_EQ(data.points().size(), pts.size());
  for (size_t i = 0; i < pts.size(); ++i) EXPECT_EQ(data.point(i), pts[i]);
}

TEST(DatasetTest, MemoryBytesCoversColumnarArrays) {
  PointSet pts = GenerateUniformCube(100, 8, /*seed=*/6);
  Dataset data = Dataset::FromPoints(pts);
  // At least the raw coordinate storage (row-major floats) twice: once in
  // the points, once columnar.
  EXPECT_GT(data.MemoryBytes(), 2 * 100 * 8 * sizeof(float));
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
  data.Assign(MixedPoints(9, 6, /*seed=*/8));
  ExpectScreenStatsMatchRecomputation(data, "assign");
  Dataset gathered;
  std::vector<uint32_t> rows = {7, 2, 2, 5};
  gathered.AssignGatherColumnar(data, rows);
  ExpectScreenStatsMatchRecomputation(gathered, "gather");
  data.Clear();
  ExpectScreenStatsMatchRecomputation(data, "clear");
  EXPECT_EQ(data.screen_stats().max_norm, 0.0);
}

TEST(DatasetDeathTest, RejectsMismatchedDimensions) {
  Dataset data;
  data.Append(Point::Dense2(1.0f, 2.0f));
  EXPECT_DEATH(data.Append(Point::Dense3(1.0f, 2.0f, 3.0f)), "CHECK failed");
}

}  // namespace
}  // namespace diverse
