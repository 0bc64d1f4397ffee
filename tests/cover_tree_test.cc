// The metric-index contract (core/cover_tree.h): every indexed traversal —
// lazy-greedy GMM and the one-shot multi-center relax — produces
// BIT-IDENTICAL selections, trajectories, assignments, distances, and radii
// to the flat screened path it accelerates, across metrics, representations,
// adversarial layouts, and thread counts; node-level prunes only retire
// work the triangle inequality (inflated by the certified kernel slack)
// proves could not change any outcome. The suite also pins the accounting
// (indexed leaf-sweep rescues never exceed the flat screened baseline, and
// CountingMetric's total equals rescues + node bound evaluations), the
// build invariants, the deterministic profitability gate, concurrent
// traversals over one shared tree, and the sparse decode cache's reuse
// counters.

#include <algorithm>
#include <cstddef>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/cover_tree.h"
#include "core/dataset.h"
#include "core/gmm.h"
#include "core/metric.h"
#include "core/screen.h"
#include "data/sparse_text.h"
#include "data/synthetic.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace diverse {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Indexing forced on: skips the gate's size minimums and probe.
constexpr KernelPolicy kForced{.indexing = IndexPolicy::kForce};

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

PointSet AllDuplicates(size_t n) {
  PointSet pts;
  for (size_t i = 0; i < n; ++i) pts.push_back(Point::Dense3(1.0f, 2.0f, 3.0f));
  return pts;
}

// Clustered SPARSE data: `clusters` disjoint-ish topic supports over the
// vocabulary; each point takes its topic's support with a few indices
// swapped, so Jaccard and angular distances are small inside a topic and
// near-maximal across topics (the regime where set-metric prunes fire).
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

std::vector<std::unique_ptr<Metric>> AllMetrics(KernelPolicy policy = {}) {
  std::vector<std::unique_ptr<Metric>> metrics;
  metrics.push_back(std::make_unique<EuclideanMetric>(policy));
  metrics.push_back(std::make_unique<ManhattanMetric>(policy));
  metrics.push_back(std::make_unique<CosineMetric>(policy));
  metrics.push_back(std::make_unique<JaccardMetric>(policy));
  return metrics;
}

// The built-in `metric` rebuilt with the index off: the flat screened path.
std::unique_ptr<Metric> Flat(const Metric& metric) {
  return MakeMetricByName(metric.Name(), {.indexing = IndexPolicy::kOff});
}

struct NamedLayout {
  std::string name;
  PointSet pts;
};

std::vector<NamedLayout> AllLayouts() {
  std::vector<NamedLayout> layouts;
  layouts.push_back({"dense", GenerateUniformCube(140, 6, /*seed=*/301)});
  layouts.push_back({"sparse", SparsePoints(140, /*seed=*/302)});
  layouts.push_back({"mixed", MixedPoints(140, 12, /*seed=*/303)});
  layouts.push_back({"duplicates", AllDuplicates(90)});
  layouts.push_back({"outlier", OneClusterPlusOutlier(120, /*seed=*/304)});
  layouts.push_back({"singleton", OneClusterPlusOutlier(1, /*seed=*/305)});
  return layouts;
}

void ExpectSameGmm(const GmmResult& got, const GmmResult& want,
                   const std::string& ctx) {
  EXPECT_EQ(got.selected, want.selected) << ctx;
  EXPECT_EQ(got.selection_distance, want.selection_distance) << ctx;
  EXPECT_EQ(got.assignment, want.assignment) << ctx;
  EXPECT_EQ(got.distance_to_selected, want.distance_to_selected) << ctx;
  EXPECT_EQ(got.range, want.range) << ctx;
}

class ThreadCounts : public ::testing::TestWithParam<size_t> {};

INSTANTIATE_TEST_SUITE_P(Threads, ThreadCounts, ::testing::Values(1, 2, 8));

// The headline contract: Gmm with the index forced on equals Gmm with the
// index off, byte for byte, for every metric x layout x thread count —
// including layouts engineered to stress ties (duplicates), degenerate
// radii, and single-point trees.
TEST_P(ThreadCounts, GmmIndexedBitIdenticalToFlat) {
  SetGlobalThreadPoolSize(GetParam());
  for (const NamedLayout& layout : AllLayouts()) {
    Dataset data(layout.pts);
    size_t k = std::min<size_t>(10, data.size());
    for (const auto& metric : AllMetrics(kForced)) {
      GmmResult flat = Gmm(data, *Flat(*metric), k);
      GmmResult indexed = Gmm(data, *metric, k);
      ExpectSameGmm(indexed, flat, metric->Name() + "/" + layout.name);
    }
  }
  SetGlobalThreadPoolSize(1);
}

// Deeper trees and real pruning: clustered corpora large enough for several
// split levels, with k large enough that stale bounds and stashed ranks are
// exercised heavily.
TEST_P(ThreadCounts, GmmIndexedAtScaleBitIdenticalToFlat) {
  SetGlobalThreadPoolSize(GetParam());
  std::vector<NamedLayout> layouts;
  layouts.push_back(
      {"blobs", GenerateGaussianBlobs(4000, 8, 8, 0.02, /*seed=*/311)});
  layouts.push_back({"sparse", SparsePoints(3000, /*seed=*/312)});
  for (const NamedLayout& layout : layouts) {
    Dataset data(layout.pts);
    for (const auto& metric : AllMetrics(kForced)) {
      GmmResult flat = Gmm(data, *Flat(*metric), 48, /*first=*/7);
      GmmResult indexed = Gmm(data, *metric, 48, /*first=*/7);
      ExpectSameGmm(indexed, flat, metric->Name() + "/" + layout.name);
    }
  }
  SetGlobalThreadPoolSize(1);
}

// The one-shot multi-center relax: indexed vs flat screened, warm and cold
// incoming dist arrays.
TEST_P(ThreadCounts, IndexedRelaxBitIdenticalToFlat) {
  SetGlobalThreadPoolSize(GetParam());
  for (const NamedLayout& layout : AllLayouts()) {
    Dataset data(layout.pts);
    size_t n = data.size();
    size_t m = std::min<size_t>(24, n);
    Dataset centers;
    for (size_t i = 0; i < m; ++i) centers.Append(data.point((i * 7) % n));
    for (const auto& metric : AllMetrics(kForced)) {
      std::string ctx = metric->Name() + "/" + layout.name;
      ASSERT_TRUE(
          OneShotIndexProfitable(*metric, centers, m, data) ||
          !UseIndexing(*metric, data))
          << ctx;
      CoverTree tree = CoverTree::Build(data, *metric);
      std::vector<double> flat_dist(n, kInf);
      std::vector<size_t> flat_assign(n, 0);
      size_t flat_best = ScreenedRelaxTilesAndArgFarthest(
          *metric, centers, 0, m, 0, data, flat_dist, flat_assign);
      std::vector<double> dist(n, kInf);
      std::vector<size_t> assign(n, 0);
      size_t best = IndexedRelaxTilesAndArgFarthest(*metric, centers, 0, m, 0,
                                                    tree, dist, assign);
      EXPECT_EQ(best, flat_best) << ctx;
      EXPECT_EQ(dist, flat_dist) << ctx;
      EXPECT_EQ(assign, flat_assign) << ctx;
      // Warm rerun with half the centers already folded in.
      std::vector<double> warm_flat = flat_dist;
      std::vector<size_t> warm_flat_assign = flat_assign;
      size_t wf = ScreenedRelaxTilesAndArgFarthest(
          *metric, centers, m / 2, m - m / 2, m / 2, data, warm_flat,
          warm_flat_assign);
      std::vector<double> warm = dist;
      std::vector<size_t> warm_assign = assign;
      size_t wi = IndexedRelaxTilesAndArgFarthest(
          *metric, centers, m / 2, m - m / 2, m / 2, tree, warm, warm_assign);
      EXPECT_EQ(wi, wf) << ctx;
      EXPECT_EQ(warm, warm_flat) << ctx;
      EXPECT_EQ(warm_assign, warm_flat_assign) << ctx;
    }
  }
  SetGlobalThreadPoolSize(1);
}

// Build invariants: perm is a permutation, children partition their parent
// contiguously, every row lies within the (computed) node radius of the
// node center, min_orig is exact, and leaf_data holds the permuted rows.
TEST(CoverTreeBuild, Invariants) {
  EuclideanMetric metric;
  Dataset data(
      GenerateGaussianBlobs(3000, 8, 6, 0.05, /*seed=*/321));
  CoverTree tree = CoverTree::Build(data, metric);
  size_t n = data.size();
  ASSERT_EQ(tree.size(), n);
  std::vector<uint8_t> seen(n, 0);
  for (size_t l = 0; l < n; ++l) {
    size_t orig = tree.perm()[l];
    ASSERT_LT(orig, n);
    EXPECT_EQ(seen[orig], 0u);
    seen[orig] = 1;
    EXPECT_EQ(tree.inv_perm()[orig], l);
    EXPECT_EQ(tree.leaf_data().norm(l), data.norm(orig));
  }
  ASSERT_FALSE(tree.nodes().empty());
  EXPECT_EQ(tree.nodes()[0].begin, 0u);
  EXPECT_EQ(tree.nodes()[0].end, n);
  EXPECT_GT(tree.build_evals(), 0u);
  for (size_t i = 0; i < tree.nodes().size(); ++i) {
    const CoverTree::Node& nd = tree.nodes()[i];
    ASSERT_LT(nd.begin, nd.end);
    ASSERT_GE(nd.center, nd.begin);
    ASSERT_LT(nd.center, nd.end);
    size_t min_orig = tree.perm()[nd.begin];
    for (size_t l = nd.begin; l < nd.end; ++l) {
      min_orig = std::min(min_orig, tree.perm()[l]);
      const uint32_t row = static_cast<uint32_t>(l);
      double d;
      metric.DistanceRowsMany(tree.leaf_data(), nd.center, tree.leaf_data(),
                              {&row, 1}, &d);
      EXPECT_LE(d, nd.radius);
    }
    EXPECT_EQ(nd.min_orig, min_orig);
    if (nd.left != 0) {
      ASSERT_NE(nd.right, 0u);
      ASSERT_GT(nd.left, i);
      ASSERT_GT(nd.right, i);
      const CoverTree::Node& l = tree.nodes()[nd.left];
      const CoverTree::Node& r = tree.nodes()[nd.right];
      EXPECT_EQ(l.begin, nd.begin);
      EXPECT_EQ(l.end, r.begin);
      EXPECT_EQ(r.end, nd.end);
    }
  }
}

TEST(CoverTreeBuild, EmptyAndSingleton) {
  EuclideanMetric metric;
  Dataset empty;
  CoverTree none = CoverTree::Build(empty, metric);
  EXPECT_TRUE(none.empty());
  EXPECT_TRUE(none.nodes().empty());
  std::vector<double> no_dist;
  EXPECT_EQ(IndexedRelaxTilesAndArgFarthest(metric, empty, 0, 0, 0, none,
                                            no_dist),
            0u);

  Dataset one(AllDuplicates(1));
  CoverTree single = CoverTree::Build(one, metric);
  ASSERT_EQ(single.size(), 1u);
  ASSERT_EQ(single.nodes().size(), 1u);
  EXPECT_EQ(single.nodes()[0].left, 0u);
  EuclideanMetric forced(kForced);
  GmmResult r = LazyGreedyGmm(one, single, forced, 1);
  EXPECT_EQ(r.selected, std::vector<size_t>{0});
  EXPECT_EQ(r.range, 0.0);
}

// Accounting: the indexed leaf sweeps pay AT MOST the flat screened sweep's
// exact rescues (their per-pair decisions are the flat sweep's restricted
// to surviving rows), node-level prunes actually fire on clustered data,
// and CountingMetric's exact total splits exactly into leaf rescues plus
// node bound evaluations.
TEST(CoverTreeCounts, IndexedExactEvalsNeverExceedFlatScreened) {
  SetGlobalThreadPoolSize(1);
  Dataset blobs(
      GenerateGaussianBlobs(3000, 8, 8, 0.02, /*seed=*/331));
  // Jaccard needs clustered SPARSE data: on dense rows every support is the
  // full dimension, all distances are 0, the root radius is 0, and the tree
  // collapses to one leaf — no node to prune.
  Dataset topics =
      Dataset(ClusteredSparsePoints(3000, 8, /*seed=*/332));
  for (const auto& base : AllMetrics(kForced)) {
    std::string ctx = base->Name();
    const Dataset& data = (ctx == "jaccard") ? topics : blobs;
    // Flat screened baseline (index off, screen on).
    GmmResult flat;
    uint64_t flat_exact = 0;
    {
      const auto flat_base = Flat(*base);
      CountingMetric flat_counting(flat_base.get());
      flat = Gmm(data, flat_counting, 32);
      flat_exact = flat_counting.exact_evals();
    }
    // Indexed: tree built with the PLAIN metric (build cost accounted
    // separately), traversal through the counting wrapper.
    CoverTree tree = CoverTree::Build(data, *base);
    CountingMetric counting(base.get());
    CoverTreeQueryStats stats;
    GmmResult indexed = LazyGreedyGmm(data, tree, counting, 32, 0, &stats);
    ExpectSameGmm(indexed, flat, ctx);
    EXPECT_LE(stats.exact_evals, flat_exact) << ctx;
    EXPECT_EQ(counting.exact_evals(), stats.exact_evals + stats.bound_evals)
        << ctx;
    EXPECT_GT(stats.pruned_pairs, 0u) << ctx;
    EXPECT_GT(stats.node_visits, 0u) << ctx;
  }
}

// The profitability gate is a pure function of dataset statistics: verdicts
// repeat exactly, clustered low-dimensional corpora index, uniform
// high-dimensional corpora do not, and the structural minimums short-
// circuit without probing.
TEST(CoverTreeGate, DeterministicVerdicts) {
  SetGlobalThreadPoolSize(1);
  EuclideanMetric metric;
  Dataset clustered(
      GenerateGaussianBlobs(8192, 8, 8, 0.02, /*seed=*/341));
  Dataset uniform =
      Dataset(GenerateUniformCube(8192, 32, /*seed=*/342));
  EXPECT_TRUE(IndexProfitable(clustered, metric, 64));
  EXPECT_TRUE(IndexProfitable(clustered, metric, 64));
  EXPECT_FALSE(IndexProfitable(uniform, metric, 64));
  EXPECT_FALSE(IndexProfitable(uniform, metric, 64));
  // Below the structural minimums: no probe, no index.
  EXPECT_FALSE(IndexProfitable(clustered, metric, 8));
  Dataset tiny(GenerateUniformCube(64, 4, 343));
  EXPECT_FALSE(IndexProfitable(tiny, metric, 64));
  // The policy overrides both ways.
  EuclideanMetric forced(kForced);
  EXPECT_TRUE(IndexProfitable(tiny, forced, 64));
  EuclideanMetric off({.indexing = IndexPolicy::kOff});
  EXPECT_FALSE(IndexProfitable(clustered, off, 64));
  // One-shot slack coverage: a query whose norm undercuts the data's
  // smallest positive norm is not dominated and must take the flat path.
  {
    EXPECT_TRUE(OneShotIndexProfitable(forced, clustered, 256, clustered));
    Dataset tiny_norm;
    tiny_norm.Append(Point::Dense(std::vector<float>(8, 1e-30f)));
    EXPECT_FALSE(OneShotIndexProfitable(forced, tiny_norm, 256, clustered));
  }
}

// Many traversals over ONE shared immutable tree from different threads:
// results match the single-threaded reference (the per-traversal state is
// thread-local; the tree is read-only). Run under TSan via the concurrency
// label.
TEST(CoverTreeConcurrency, ConcurrentTraversalsShareOneTree) {
  SetGlobalThreadPoolSize(1);
  EuclideanMetric metric(kForced);
  Dataset data(
      GenerateGaussianBlobs(2000, 8, 6, 0.03, /*seed=*/351));
  CoverTree tree = CoverTree::Build(data, metric);
  GmmResult want = LazyGreedyGmm(data, tree, metric, 24);
  constexpr size_t kThreads = 8;
  std::vector<GmmResult> got(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      got[t] = LazyGreedyGmm(data, tree, metric, 24);
    });
  }
  for (auto& w : workers) w.join();
  for (size_t t = 0; t < kThreads; ++t) {
    ExpectSameGmm(got[t], want, "thread " + std::to_string(t));
  }
}

// Satellite proof: the sparse decode cache actually reuses query-block
// decodes across row ranges of one sweep. An all-sparse cosine tile relax
// decodes each center block once per (row-range, lane-width) shape; a
// second call on the next equal-size row range — the shape a thread's
// chunked sweep produces — must hit the cache instead of re-decoding.
TEST(SparseDecodeCache, ReusesQueryBlockDecodesAcrossRowRanges) {
  SetGlobalThreadPoolSize(1);
  CosineMetric metric;
  Dataset data(SparsePoints(4000, /*seed=*/361));
  size_t n = data.size();
  Dataset centers;
  for (size_t i = 0; i < 8; ++i) centers.Append(data.point(i * 11));
  ASSERT_TRUE(metric.RelaxTileScreeningProfitableFor(SideStatsOf(centers),
                                                     SideStatsOf(data)));
  ScreenBound bound = metric.ScreenErrorBound(SideStatsOf(centers),
                                              SideStatsOf(data), data.dim());
  ASSERT_LT(bound.rel, 1.0);
  std::vector<double> dist(n, kInf);
  std::vector<size_t> assign(n, 0);
  ResetSparseQueryDecodeStats();
  metric.ScreenedRelaxTile(centers, 0, 8, 0, data, 0, n / 2, bound, dist,
                           assign);
  uint64_t first_decodes = SparseQueryDecodeCount();
  EXPECT_GT(first_decodes, 0u);
  EXPECT_EQ(SparseQueryDecodeHits(), 0u);
  metric.ScreenedRelaxTile(centers, 0, 8, 0, data, n / 2, n - n / 2, bound,
                           dist, assign);
  // Same query block, same lane shape: the second range re-decodes nothing.
  EXPECT_EQ(SparseQueryDecodeCount(), first_decodes);
  EXPECT_GT(SparseQueryDecodeHits(), 0u);
  // The cached sweep matches an uncached exact relax bit for bit.
  std::vector<double> want_dist(n, kInf);
  std::vector<size_t> want_assign(n, 0);
  for (size_t q = 0; q < 8; ++q) {
    std::vector<double> row(n);
    metric.DistanceToMany(centers.point(q), data, 0, row);
    for (size_t r = 0; r < n; ++r) {
      if (row[r] < want_dist[r]) {
        want_dist[r] = row[r];
        want_assign[r] = q;
      }
    }
  }
  EXPECT_EQ(dist, want_dist);
  EXPECT_EQ(assign, want_assign);
  // The indexed path leans harder on the cache: one center block applied to
  // many leaf slabs re-decodes nothing.
  CosineMetric forced(kForced);
  CoverTree tree = CoverTree::Build(data, forced);
  ResetSparseQueryDecodeStats();
  GmmResult flat = Gmm(data, CosineMetric({.indexing = IndexPolicy::kOff}), 16);
  GmmResult indexed = LazyGreedyGmm(data, tree, forced, 16);
  ExpectSameGmm(indexed, flat, "cosine/sparse-decode");
}

}  // namespace
}  // namespace diverse
