#include "mapreduce/partitioner.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "core/metric.h"
#include "data/sparse_text.h"
#include "data/synthetic.h"

namespace diverse {
namespace {

// Every partition strategy must produce a balanced permutation of the input.
class PartitionerTest : public ::testing::TestWithParam<PartitionStrategy> {};

TEST_P(PartitionerTest, IsBalancedPermutation) {
  EuclideanMetric m;
  PointSet pts = GenerateUniformCube(103, 2, /*seed=*/1);
  auto parts = PartitionPoints(pts, 8, GetParam(), /*seed=*/42, &m);
  ASSERT_EQ(parts.size(), 8u);
  size_t total = 0;
  for (const PointSet& part : parts) {
    EXPECT_GE(part.size(), 103u / 8);
    EXPECT_LE(part.size(), 103u / 8 + 1);
    total += part.size();
  }
  EXPECT_EQ(total, pts.size());
  // Multiset equality via sorted coordinate dumps.
  auto key = [](const Point& p) {
    return std::make_pair(p.dense_values()[0], p.dense_values()[1]);
  };
  std::multiset<std::pair<float, float>> original, partitioned;
  for (const Point& p : pts) original.insert(key(p));
  for (const PointSet& part : parts) {
    for (const Point& p : part) partitioned.insert(key(p));
  }
  EXPECT_EQ(original, partitioned);
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, PartitionerTest,
    ::testing::Values(PartitionStrategy::kChunked, PartitionStrategy::kRandom,
                      PartitionStrategy::kAdversarial),
    [](const ::testing::TestParamInfo<PartitionStrategy>& info) {
      return PartitionStrategyName(info.param);
    });

TEST(PartitionerTest, StrategyNames) {
  EXPECT_EQ(PartitionStrategyName(PartitionStrategy::kChunked), "chunked");
  EXPECT_EQ(PartitionStrategyName(PartitionStrategy::kRandom), "random");
  EXPECT_EQ(PartitionStrategyName(PartitionStrategy::kAdversarial),
            "adversarial");
}

TEST(PartitionerTest, ChunkedPreservesOrder) {
  PointSet pts;
  for (int i = 0; i < 10; ++i) {
    pts.push_back(Point::Dense({static_cast<float>(i)}));
  }
  auto parts = PartitionPoints(pts, 2, PartitionStrategy::kChunked, 0);
  EXPECT_EQ(parts[0][0].dense_values()[0], 0.0f);
  EXPECT_EQ(parts[0][4].dense_values()[0], 4.0f);
  EXPECT_EQ(parts[1][0].dense_values()[0], 5.0f);
}

TEST(PartitionerTest, RandomIsSeedDeterministic) {
  PointSet pts = GenerateUniformCube(50, 2, /*seed=*/2);
  auto a = PartitionPoints(pts, 4, PartitionStrategy::kRandom, 7);
  auto b = PartitionPoints(pts, 4, PartitionStrategy::kRandom, 7);
  auto c = PartitionPoints(pts, 4, PartitionStrategy::kRandom, 8);
  EXPECT_EQ(a[0][0].dense_values(), b[0][0].dense_values());
  bool differs = false;
  for (size_t i = 0; i < a[0].size() && !differs; ++i) {
    differs = !(a[0][i] == c[0][i]);
  }
  EXPECT_TRUE(differs);
}

TEST(PartitionerTest, AdversarialLocalizesDensePoints) {
  // After lexicographic sorting, each part spans a narrow slab in the first
  // coordinate; total first-coordinate spread of parts is much smaller than
  // the full range for most parts.
  PointSet pts = GenerateUniformCube(1000, 2, /*seed=*/3);
  auto parts =
      PartitionPoints(pts, 10, PartitionStrategy::kAdversarial, 0);
  for (const PointSet& part : parts) {
    float lo = 1e9f, hi = -1e9f;
    for (const Point& p : part) {
      lo = std::min(lo, p.dense_values()[0]);
      hi = std::max(hi, p.dense_values()[0]);
    }
    EXPECT_LE(hi - lo, 0.25f);  // a slab of ~1/10 of the unit range + slack
  }
}

TEST(PartitionerTest, AdversarialSparseUsesMetricShells) {
  CosineMetric m;
  SparseTextOptions opts;
  opts.n = 60;
  opts.vocab_size = 100;
  opts.min_terms = 3;
  opts.max_terms = 10;
  opts.seed = 5;
  PointSet pts = GenerateSparseTextDataset(opts);
  auto parts =
      PartitionPoints(pts, 4, PartitionStrategy::kAdversarial, 0, &m);
  // Distance-to-pivot must be non-decreasing across part boundaries.
  const Point& pivot = pts[0];
  double prev_max = -1.0;
  for (const PointSet& part : parts) {
    double lo = 1e100, hi = -1.0;
    for (const Point& p : part) {
      double d = m.Distance(p, pivot);
      lo = std::min(lo, d);
      hi = std::max(hi, d);
    }
    EXPECT_GE(lo, prev_max - 1e-9);
    prev_max = hi;
  }
}

TEST(PartitionerTest, AdversarialMixedInputWithDenseRowZeroUsesPivotShells) {
  // Row 0 is dense but other rows are sparse: lexicographic order is
  // undefined on sparse rows, so the partitioner sorts by distance to row 0.
  EuclideanMetric m;
  PointSet pts;
  for (uint32_t i = 0; i < 40; ++i) {
    const float v = static_cast<float>(i % 7) + 0.5f;
    if (i % 3 == 0) {
      pts.push_back(Point::Dense({v, 0.0f, 1.0f, 0.0f, v}));
    } else {
      pts.push_back(Point::Sparse({i % 5}, {v}, /*dim=*/5));
    }
  }
  auto parts = PartitionPoints(pts, 4, PartitionStrategy::kAdversarial, 0, &m);
  ASSERT_EQ(parts.size(), 4u);
  double prev_max = -1.0;
  size_t total = 0;
  for (const PointSet& part : parts) {
    EXPECT_EQ(part.size(), 10u);
    total += part.size();
    double lo = 1e100, hi = -1.0;
    for (const Point& p : part) {
      double d = m.Distance(p, pts[0]);
      lo = std::min(lo, d);
      hi = std::max(hi, d);
    }
    EXPECT_GE(lo, prev_max);
    prev_max = hi;
  }
  EXPECT_EQ(total, pts.size());
  // The row partitioner the MapReduce drivers use gives the same parts.
  const std::vector<std::vector<uint32_t>> rows = PartitionRows(
      Dataset(pts), 4, PartitionStrategy::kAdversarial, 0, &m);
  ASSERT_EQ(rows.size(), parts.size());
  for (size_t p = 0; p < parts.size(); ++p) {
    ASSERT_EQ(rows[p].size(), parts[p].size());
    for (size_t j = 0; j < rows[p].size(); ++j) {
      EXPECT_EQ(pts[rows[p][j]], parts[p][j]);
    }
  }
}

TEST(PartitionerTest, SinglePartIsWholeInput) {
  PointSet pts = GenerateUniformCube(20, 2, /*seed=*/6);
  auto parts = PartitionPoints(pts, 1, PartitionStrategy::kRandom, 1);
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0].size(), pts.size());
}

TEST(PartitionerTest, MorePartsThanPointsYieldsEmptyTails) {
  PointSet pts = GenerateUniformCube(3, 2, /*seed=*/7);
  for (PartitionStrategy strategy :
       {PartitionStrategy::kChunked, PartitionStrategy::kRandom,
        PartitionStrategy::kAdversarial}) {
    EuclideanMetric m;
    auto parts = PartitionPoints(pts, 7, strategy, /*seed=*/0, &m);
    ASSERT_EQ(parts.size(), 7u) << PartitionStrategyName(strategy);
    size_t total = 0;
    for (size_t p = 0; p < parts.size(); ++p) {
      EXPECT_LE(parts[p].size(), 1u);
      total += parts[p].size();
      if (p >= pts.size()) {
        EXPECT_TRUE(parts[p].empty()) << "tail part " << p;
      }
    }
    EXPECT_EQ(total, pts.size());
  }
}

TEST(PartitionerTest, EmptyInputYieldsAllEmptyParts) {
  PointSet empty;
  for (PartitionStrategy strategy :
       {PartitionStrategy::kChunked, PartitionStrategy::kRandom,
        PartitionStrategy::kAdversarial}) {
    // No metric: the adversarial branch must not touch points[0] (or the
    // metric) when there is nothing to sort.
    auto parts = PartitionPoints(empty, 5, strategy, /*seed=*/3);
    ASSERT_EQ(parts.size(), 5u) << PartitionStrategyName(strategy);
    for (const PointSet& part : parts) EXPECT_TRUE(part.empty());
  }
}

TEST(PartitionerTest, AdversarialSparseSingletonNeedsNoSort) {
  // One sparse point, more parts than points: the pivot-distance branch
  // runs on a single element and the tails stay empty.
  CosineMetric m;
  PointSet pts;
  pts.push_back(Point::Sparse({1, 5}, {1.0f, 2.0f}, /*dim=*/10));
  auto parts =
      PartitionPoints(pts, 3, PartitionStrategy::kAdversarial, 0, &m);
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0].size(), 1u);
  EXPECT_TRUE(parts[1].empty());
  EXPECT_TRUE(parts[2].empty());
}

}  // namespace
}  // namespace diverse
