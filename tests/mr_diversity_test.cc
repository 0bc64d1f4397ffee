#include "mapreduce/mr_diversity.h"

#include <gtest/gtest.h>

#include "core/exact.h"
#include "core/metric.h"
#include "data/synthetic.h"

namespace diverse {
namespace {

MrOptions BasicOptions(size_t k, size_t k_prime, size_t parts) {
  MrOptions o;
  o.k = k;
  o.k_prime = k_prime;
  o.num_partitions = parts;
  o.num_workers = 4;
  o.partition = PartitionStrategy::kRandom;
  o.seed = 3;
  return o;
}

TEST(MrDiversityTest, TwoRoundsProduceKPoints) {
  EuclideanMetric m;
  PointSet pts = GenerateUniformCube(500, 2, /*seed=*/1);
  for (DiversityProblem p : kAllProblems) {
    MapReduceDiversity mr(&m, p, BasicOptions(6, 12, 4));
    StatusOr<MrResult> r = mr.TryRun(Dataset(pts));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->solution.size(), 6u) << ProblemName(p);
    EXPECT_GT(r->diversity, 0.0) << ProblemName(p);
    EXPECT_EQ(r->rounds, 2u) << ProblemName(p);
  }
}

TEST(MrDiversityTest, CoresetSizeAccounting) {
  EuclideanMetric m;
  PointSet pts = GenerateUniformCube(400, 2, /*seed=*/2);
  size_t k = 4, k_prime = 8, parts = 4;
  {
    // GMM family: |T| = l * k'.
    MapReduceDiversity mr(&m, DiversityProblem::kRemoteEdge,
                          BasicOptions(k, k_prime, parts));
    StatusOr<MrResult> r = mr.TryRun(Dataset(pts));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->coreset_size, parts * k_prime);
  }
  {
    // GMM-EXT family: |T| <= l * k' * k.
    MapReduceDiversity mr(&m, DiversityProblem::kRemoteClique,
                          BasicOptions(k, k_prime, parts));
    StatusOr<MrResult> r = mr.TryRun(Dataset(pts));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_GE(r->coreset_size, parts * k_prime);
    EXPECT_LE(r->coreset_size, parts * k_prime * k);
  }
}

TEST(MrDiversityTest, LocalMemoryIsMaxReducerInput) {
  EuclideanMetric m;
  PointSet pts = GenerateUniformCube(800, 2, /*seed=*/3);
  MapReduceDiversity mr(&m, DiversityProblem::kRemoteEdge,
                        BasicOptions(4, 8, 8));
  StatusOr<MrResult> r = mr.TryRun(Dataset(pts));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Round 1 reducers hold n/l = 100 points; round 2 holds l*k' = 64.
  EXPECT_EQ(r->max_local_memory_points, 100u);
}

TEST(MrDiversityTest, RandomizedDelegateCapShrinksCoreset) {
  EuclideanMetric m;
  PointSet pts = GenerateUniformCube(2000, 2, /*seed=*/4);
  MrOptions base = BasicOptions(32, 32, 4);
  MapReduceDiversity det(&m, DiversityProblem::kRemoteClique, base);
  MrOptions rand_opts = base;
  rand_opts.randomized_delegate_cap = true;
  MapReduceDiversity rnd(&m, DiversityProblem::kRemoteClique, rand_opts);
  StatusOr<MrResult> det_r = det.TryRun(Dataset(pts));
  ASSERT_TRUE(det_r.ok()) << det_r.status().ToString();
  StatusOr<MrResult> rnd_r = rnd.TryRun(Dataset(pts));
  ASSERT_TRUE(rnd_r.ok()) << rnd_r.status().ToString();
  // Theorem 7: cap max(log2 n = 11, k/l = 8) = 11 delegates/cluster vs 31.
  EXPECT_LT(rnd_r->coreset_size, det_r->coreset_size);
  EXPECT_EQ(rnd_r->solution.size(), 32u);
}

TEST(MrDiversityTest, ApproximationOnTinyInputVsExact) {
  EuclideanMetric m;
  for (DiversityProblem p : kAllProblems) {
    double alpha = SequentialAlpha(p);
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      PointSet pts = GenerateUniformCube(16, 2, seed * 23);
      size_t k = 4;
      MapReduceDiversity mr(&m, p, BasicOptions(k, 8, 2));
      StatusOr<MrResult> r = mr.TryRun(Dataset(pts));
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      double opt = ExactDiversityMaximization(p, pts, m, k).value;
      // alpha+eps bound, generous eps to absorb tiny-input effects.
      EXPECT_GE(r->diversity * alpha * 2.0 + 1e-9, opt)
          << ProblemName(p) << " seed " << seed;
    }
  }
}

TEST(MrDiversityTest, CompositionRobustToPartitioning) {
  // Composable core-sets work under ANY partition: all strategies must give
  // comparable remote-edge values on planted data.
  EuclideanMetric m;
  SphereDatasetOptions sopts;
  sopts.n = 3000;
  sopts.k = 8;
  sopts.seed = 31;
  PointSet pts = GenerateSphereDataset(sopts);
  double best = 0.0, worst = 1e100;
  for (PartitionStrategy strat :
       {PartitionStrategy::kChunked, PartitionStrategy::kRandom,
        PartitionStrategy::kAdversarial}) {
    MrOptions o = BasicOptions(8, 32, 4);
    o.partition = strat;
    MapReduceDiversity mr(&m, DiversityProblem::kRemoteEdge, o);
    StatusOr<MrResult> r = mr.TryRun(Dataset(pts));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    best = std::max(best, r->diversity);
    worst = std::min(worst, r->diversity);
  }
  EXPECT_GT(worst, 0.0);
  EXPECT_LT(best / worst, 2.0);  // no partition collapses the quality
}

TEST(MrDiversityTest, GeneralizedThreeRounds) {
  EuclideanMetric m;
  PointSet pts = GenerateUniformCube(600, 2, /*seed=*/5);
  for (DiversityProblem p :
       {DiversityProblem::kRemoteClique, DiversityProblem::kRemoteStar,
        DiversityProblem::kRemoteBipartition, DiversityProblem::kRemoteTree}) {
    MapReduceDiversity mr(&m, p, BasicOptions(5, 10, 4));
    StatusOr<MrResult> r = mr.TryRunGeneralized(Dataset(pts));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->rounds, 3u) << ProblemName(p);
    EXPECT_EQ(r->solution.size(), 5u) << ProblemName(p);
    // Distinct points.
    for (size_t i = 0; i < r->solution.size(); ++i) {
      for (size_t j = i + 1; j < r->solution.size(); ++j) {
        EXPECT_FALSE(r->solution[i] == r->solution[j]) << ProblemName(p);
      }
    }
    EXPECT_GT(r->diversity, 0.0) << ProblemName(p);
  }
}

TEST(MrDiversityTest, GeneralizedUsesSmallerAggregateCoreset) {
  EuclideanMetric m;
  PointSet pts = GenerateUniformCube(2000, 2, /*seed=*/6);
  MrOptions o = BasicOptions(16, 32, 4);
  MapReduceDiversity mr(&m, DiversityProblem::kRemoteClique, o);
  StatusOr<MrResult> two_round = mr.TryRun(Dataset(pts));
  ASSERT_TRUE(two_round.ok()) << two_round.status().ToString();
  StatusOr<MrResult> three_round = mr.TryRunGeneralized(Dataset(pts));
  ASSERT_TRUE(three_round.ok()) << three_round.status().ToString();
  // Generalized: l*k' pairs vs up to l*k'*k points.
  EXPECT_LT(three_round->coreset_size, two_round->coreset_size);
}

TEST(MrDiversityTest, GeneralizedQualityComparableToTwoRound) {
  EuclideanMetric m;
  SphereDatasetOptions sopts;
  sopts.n = 2000;
  sopts.k = 6;
  sopts.seed = 77;
  PointSet pts = GenerateSphereDataset(sopts);
  MrOptions o = BasicOptions(6, 24, 4);
  MapReduceDiversity mr(&m, DiversityProblem::kRemoteClique, o);
  StatusOr<MrResult> two_run = mr.TryRun(Dataset(pts));
  ASSERT_TRUE(two_run.ok()) << two_run.status().ToString();
  double two = two_run->diversity;
  StatusOr<MrResult> three_run = mr.TryRunGeneralized(Dataset(pts));
  ASSERT_TRUE(three_run.ok()) << three_run.status().ToString();
  double three = three_run->diversity;
  EXPECT_GT(three, 0.5 * two);
}

TEST(MrDiversityTest, RecursiveMultiRound) {
  EuclideanMetric m;
  PointSet pts = GenerateUniformCube(4000, 2, /*seed=*/7);
  MrOptions o = BasicOptions(4, 8, 4);
  MapReduceDiversity mr(&m, DiversityProblem::kRemoteEdge, o);
  // Budget 200 points per reducer: 4000 -> 20 parts * 8 = 160 <= 200, so two
  // coreset levels are NOT needed; force more with a tighter budget.
  StatusOr<MrResult> r = mr.TryRunRecursive(Dataset(pts), 200);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->solution.size(), 4u);
  EXPECT_GE(r->rounds, 2u);
  EXPECT_LE(r->max_local_memory_points, 200u);
}

TEST(MrDiversityTest, RecursiveDeepRecursion) {
  EuclideanMetric m;
  PointSet pts = GenerateUniformCube(5000, 2, /*seed=*/8);
  MrOptions o = BasicOptions(2, 4, 4);
  MapReduceDiversity mr(&m, DiversityProblem::kRemoteEdge, o);
  StatusOr<MrResult> r = mr.TryRunRecursive(Dataset(pts), 50);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->solution.size(), 2u);
  EXPECT_GE(r->rounds, 3u);  // 5000 -> ~400 -> ~32 -> solve
  EXPECT_LE(r->max_local_memory_points, 50u);
  EXPECT_GT(r->diversity, 0.0);
}

TEST(MrDiversityTest, ShuffleVolumeAccounted) {
  EuclideanMetric m;
  PointSet pts = GenerateUniformCube(400, 2, /*seed=*/13);
  size_t k = 4, k_prime = 8, parts = 4;
  MapReduceDiversity mr(&m, DiversityProblem::kRemoteEdge,
                        BasicOptions(k, k_prime, parts));
  StatusOr<MrResult> r = mr.TryRun(Dataset(pts));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Round 1 ships l*k' core-set points; round 2 ships the k-point solution.
  EXPECT_EQ(r->shuffle_points, parts * k_prime + k);
}

TEST(MrDiversityTest, RoundTimingAccountedPerRound) {
  EuclideanMetric m;
  PointSet pts = GenerateUniformCube(300, 2, /*seed=*/10);
  MapReduceDiversity mr(&m, DiversityProblem::kRemoteEdge,
                        BasicOptions(4, 8, 4));
  StatusOr<MrResult> two = mr.TryRun(Dataset(pts));
  ASSERT_TRUE(two.ok()) << two.status().ToString();
  EXPECT_EQ(two->round_seconds.size(), two->rounds);
  MapReduceDiversity mrc(&m, DiversityProblem::kRemoteClique,
                         BasicOptions(4, 8, 4));
  StatusOr<MrResult> three = mrc.TryRunGeneralized(Dataset(pts));
  ASSERT_TRUE(three.ok()) << three.status().ToString();
  EXPECT_EQ(three->round_seconds.size(), three->rounds);
  for (double s : three->round_seconds) EXPECT_GE(s, 0.0);
}

TEST(MrDiversityTest, GeneralizedSolutionPointsComeFromInput) {
  EuclideanMetric m;
  PointSet pts = GenerateUniformCube(400, 2, /*seed=*/11);
  MapReduceDiversity mr(&m, DiversityProblem::kRemoteTree,
                        BasicOptions(5, 10, 4));
  StatusOr<MrResult> r = mr.TryRunGeneralized(Dataset(pts));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  for (const Point& s : r->solution) {
    bool found = false;
    for (const Point& p : pts) {
      if (p == s) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found);
  }
}

TEST(MrDiversityDeathTest, RecursiveRejectsBudgetBelowKPrime) {
  EuclideanMetric m;
  PointSet pts = GenerateUniformCube(500, 2, /*seed=*/12);
  MapReduceDiversity mr(&m, DiversityProblem::kRemoteEdge,
                        BasicOptions(4, 64, 4));
  EXPECT_DEATH((void)mr.TryRunRecursive(Dataset(pts), 32), "CHECK failed");
}

TEST(MrDiversityDeathTest, GeneralizedRejectsNonInjectiveProblems) {
  EuclideanMetric m;
  PointSet pts = GenerateUniformCube(100, 2, /*seed=*/9);
  MapReduceDiversity mr(&m, DiversityProblem::kRemoteEdge,
                        BasicOptions(4, 8, 2));
  EXPECT_DEATH((void)mr.TryRunGeneralized(Dataset(pts)), "CHECK failed");
}

}  // namespace
}  // namespace diverse
