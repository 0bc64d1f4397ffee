#include "streaming/sliding_window.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "core/metric.h"
#include "core/sequential.h"
#include "data/synthetic.h"
#include "util/rng.h"

namespace diverse {
namespace {

SlidingWindowOptions Options(DiversityProblem p, size_t k, size_t k_prime,
                             size_t window, size_t block) {
  SlidingWindowOptions o;
  o.problem = p;
  o.k = k;
  o.k_prime = k_prime;
  o.window = window;
  o.block = block;
  return o;
}

TEST(SlidingWindowTest, QueryBeforeAnyPointIsEmpty) {
  EuclideanMetric m;
  SlidingWindowDiversity sw(
      &m, Options(DiversityProblem::kRemoteEdge, 4, 8, 100, 25));
  StreamingResult r = sw.Query();
  EXPECT_TRUE(r.solution.empty());
  EXPECT_DOUBLE_EQ(r.diversity, 0.0);
}

TEST(SlidingWindowTest, ShortStreamActsLikeWholeStream) {
  EuclideanMetric m;
  SlidingWindowDiversity sw(
      &m, Options(DiversityProblem::kRemoteEdge, 4, 8, 1000, 250));
  PointSet pts = GenerateUniformCube(50, 2, /*seed=*/1);
  for (const Point& p : pts) sw.Update(p);
  StreamingResult r = sw.Query();
  EXPECT_EQ(r.solution.size(), 4u);
  EXPECT_GT(r.diversity, 0.0);
}

TEST(SlidingWindowTest, OldPointsExpire) {
  // Phase 1 of the stream contains far-apart "anchor" points; phase 2 is a
  // tight cluster. Once phase 1 slides out of the window, the solution must
  // consist only of phase-2 points (small diversity).
  EuclideanMetric m;
  size_t window = 400, block = 100;
  SlidingWindowDiversity sw(
      &m, Options(DiversityProblem::kRemoteEdge, 3, 6, window, block));

  for (int i = 0; i < 200; ++i) {
    sw.Update(Point::Dense2(static_cast<float>(i % 4) * 100.0f, 0.0f));
  }
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    sw.Update(Point::Dense2(static_cast<float>(rng.NextDouble()),
                            static_cast<float>(rng.NextDouble())));
  }
  StreamingResult r = sw.Query();
  ASSERT_EQ(r.solution.size(), 3u);
  // All anchors are >= 100 apart; the cluster has diameter <= sqrt(2).
  EXPECT_LT(r.diversity, 2.0);
  for (const Point& p : r.solution) {
    EXPECT_LE(p.dense_values()[0], 1.0f);  // no expired anchor survives
  }
}

TEST(SlidingWindowTest, RecentFarPointIsFound) {
  EuclideanMetric m;
  SlidingWindowDiversity sw(
      &m, Options(DiversityProblem::kRemoteEdge, 2, 4, 300, 100));
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    sw.Update(Point::Dense2(static_cast<float>(rng.NextDouble()),
                            static_cast<float>(rng.NextDouble())));
  }
  sw.Update(Point::Dense2(1000.0f, 1000.0f));  // recent outlier
  StreamingResult r = sw.Query();
  EXPECT_GT(r.diversity, 500.0);  // the outlier must be in the solution
}

TEST(SlidingWindowTest, MemoryIndependentOfStreamLength) {
  EuclideanMetric m;
  SlidingWindowDiversity sw(
      &m, Options(DiversityProblem::kRemoteEdge, 4, 8, 1000, 250));
  Rng rng(4);
  size_t peak = 0;
  for (int i = 0; i < 20000; ++i) {
    sw.Update(Point::Dense2(static_cast<float>(rng.NextDouble()),
                            static_cast<float>(rng.NextDouble())));
    peak = std::max(peak, sw.StoredPoints());
  }
  // <= (max_blocks + 1 running engine) * ~2(k'+1) points, far below 20000.
  EXPECT_LE(peak, 200u);
  EXPECT_EQ(sw.points_processed(), 20000u);
  EXPECT_LE(sw.retained_blocks(), 4u);
}

TEST(SlidingWindowTest, QualityTracksBatchSolveOnWindow) {
  EuclideanMetric m;
  size_t window = 2000, block = 500, k = 6;
  SlidingWindowDiversity sw(
      &m, Options(DiversityProblem::kRemoteEdge, k, 4 * k, window, block));
  SphereDatasetOptions dopts;
  dopts.n = 10000;
  dopts.k = k;
  dopts.seed = 5;
  SphereStream stream(dopts);
  PointSet history;
  while (stream.HasNext()) {
    Point p = stream.Next();
    history.push_back(p);
    sw.Update(p);
  }
  StreamingResult r = sw.Query();
  // Batch reference on the retained span (window rounded up to blocks).
  size_t span = std::min(history.size(),
                         window + block);  // block-granular slack
  PointSet recent(history.end() - static_cast<ptrdiff_t>(span),
                  history.end());
  std::vector<size_t> ref = SolveSequential(DiversityProblem::kRemoteEdge,
                                            Dataset(recent), m, k);
  PointSet ref_sol;
  for (size_t idx : ref) ref_sol.push_back(recent[idx]);
  double ref_div =
      EvaluateDiversity(DiversityProblem::kRemoteEdge, ref_sol, m);
  EXPECT_GE(r.diversity, 0.4 * ref_div);
}

TEST(SlidingWindowTest, InjectiveProblemsUseDelegates) {
  EuclideanMetric m;
  SlidingWindowDiversity sw(
      &m, Options(DiversityProblem::kRemoteClique, 5, 10, 800, 200));
  PointSet pts = GenerateUniformCube(3000, 2, /*seed=*/6);
  for (const Point& p : pts) sw.Update(p);
  StreamingResult r = sw.Query();
  EXPECT_EQ(r.solution.size(), 5u);
  // Distinct points (delegate machinery supplies witnesses).
  for (size_t i = 0; i < r.solution.size(); ++i) {
    for (size_t j = i + 1; j < r.solution.size(); ++j) {
      EXPECT_FALSE(r.solution[i] == r.solution[j]);
    }
  }
  EXPECT_GT(r.diversity, 0.0);
}

TEST(SlidingWindowTest, AutoBlockSizing) {
  EuclideanMetric m;
  SlidingWindowOptions o;
  o.problem = DiversityProblem::kRemoteEdge;
  o.k = 4;
  o.k_prime = 8;
  o.window = 1000;
  o.block = 0;  // auto: max(1000/8, 8) = 125
  SlidingWindowDiversity sw(&m, o);
  for (int i = 0; i < 2000; ++i) {
    sw.Update(Point::Dense2(static_cast<float>(i), 0.0f));
  }
  EXPECT_EQ(sw.retained_blocks(), 8u);
}

TEST(SlidingWindowTest, PeakMemoryIsAHighWaterMarkNotCurrentResidency) {
  // Phase 1 streams spread-out points (fat per-block core-sets); phase 2
  // streams one duplicated point (minimal core-sets). After phase 2 expires
  // every fat block, current residency is far below the peak — the reported
  // peak_memory_points must remember the fat phase.
  EuclideanMetric m;
  SlidingWindowDiversity sw(
      &m, Options(DiversityProblem::kRemoteEdge, 4, 16, 400, 100));
  Rng rng(7);
  size_t external_max = 0;
  for (int i = 0; i < 600; ++i) {
    sw.Update(Point::Dense2(static_cast<float>(rng.NextDouble() * 1000.0),
                            static_cast<float>(rng.NextDouble() * 1000.0)));
    external_max = std::max(external_max, sw.StoredPoints());
  }
  for (int i = 0; i < 2000; ++i) {
    sw.Update(Point::Dense2(5.0f, 5.0f));
  }
  // The duplicate phase collapses residency (every block core-set degenerates
  // to ~1 distinct location) while the peak was set during the spread phase.
  EXPECT_GE(sw.PeakStoredPoints(), external_max);
  EXPECT_LT(sw.StoredPoints(), external_max);
  StreamingResult r = sw.Query();
  EXPECT_EQ(r.peak_memory_points, sw.PeakStoredPoints());
  EXPECT_GT(r.peak_memory_points, sw.StoredPoints());
}

TEST(SlidingWindowTest, PeakMemoryCoversEvictedBlocks) {
  // Stream long enough that early blocks are sealed and evicted between
  // queries: the peak must be monotone and at least every residency ever
  // externally observed, even though Query() is only called at the end.
  EuclideanMetric m;
  SlidingWindowDiversity sw(
      &m, Options(DiversityProblem::kRemoteClique, 3, 6, 200, 50));
  Rng rng(8);
  size_t external_max = 0;
  size_t last_peak = 0;
  for (int i = 0; i < 3000; ++i) {
    sw.Update(Point::Dense2(static_cast<float>(rng.NextDouble()),
                            static_cast<float>(rng.NextDouble())));
    external_max = std::max(external_max, sw.StoredPoints());
    EXPECT_GE(sw.PeakStoredPoints(), last_peak);  // monotone
    last_peak = sw.PeakStoredPoints();
  }
  EXPECT_GE(sw.PeakStoredPoints(), external_max);
  EXPECT_GE(sw.Query().peak_memory_points, external_max);
}

// Query() snapshots the running block's core-set mid-block; that must only
// read the live engine. Two summarizers see the same stream, one queried
// after every 7th point and once more mid-block, the other never: they
// must end in the same state.
TEST(SlidingWindowTest, QueryDoesNotDisturbTheRunningBlock) {
  EuclideanMetric m;
  for (DiversityProblem problem :
       {DiversityProblem::kRemoteEdge, DiversityProblem::kRemoteClique}) {
    SlidingWindowOptions o = Options(problem, 4, 12, 300, 100);
    SlidingWindowDiversity queried(&m, o);
    SlidingWindowDiversity quiet(&m, o);
    PointSet pts = GenerateUniformCube(1037, 3, /*seed=*/9);
    for (size_t i = 0; i < pts.size(); ++i) {
      queried.Update(pts[i]);
      quiet.Update(pts[i]);
      if (i % 7 == 6 || i == 550) queried.Query();
    }
    StreamingResult a = queried.Query();
    StreamingResult b = quiet.Query();
    const int id = static_cast<int>(problem);
    EXPECT_EQ(a.solution, b.solution) << id;
    EXPECT_EQ(a.diversity, b.diversity) << id;
    EXPECT_EQ(a.coreset_size, b.coreset_size) << id;
    EXPECT_EQ(queried.StoredPoints(), quiet.StoredPoints()) << id;
  }
}

TEST(SlidingWindowDeathTest, WindowSmallerThanBlockRejected) {
  EuclideanMetric m;
  EXPECT_DEATH(SlidingWindowDiversity(
                   &m, Options(DiversityProblem::kRemoteEdge, 4, 8, 50, 100)),
               "CHECK failed");
}

}  // namespace
}  // namespace diverse
