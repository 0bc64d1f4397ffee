#include "mapreduce/afz.h"

#include <gtest/gtest.h>

#include "core/exact.h"
#include "core/metric.h"
#include "data/synthetic.h"

namespace diverse {
namespace {

AfzOptions Options(size_t k, size_t parts) {
  AfzOptions o;
  o.k = k;
  o.num_partitions = parts;
  o.num_workers = 4;
  o.seed = 5;
  return o;
}

TEST(AfzTest, RemoteEdgeProducesKPoints) {
  EuclideanMetric m;
  PointSet pts = GenerateUniformCube(400, 2, /*seed=*/1);
  MrResult r =
      TryRunAfz(pts, m, DiversityProblem::kRemoteEdge, Options(6, 4)).value();
  EXPECT_EQ(r.solution.size(), 6u);
  EXPECT_GT(r.diversity, 0.0);
  EXPECT_EQ(r.rounds, 2u);
  EXPECT_EQ(r.coreset_size, 4u * 6u);  // l * k
}

TEST(AfzTest, RemoteCliqueProducesKPoints) {
  EuclideanMetric m;
  PointSet pts = GenerateUniformCube(400, 2, /*seed=*/2);
  MrResult r =
      TryRunAfz(pts, m, DiversityProblem::kRemoteClique, Options(4, 4))
          .value();
  EXPECT_EQ(r.solution.size(), 4u);
  EXPECT_GT(r.diversity, 0.0);
}

TEST(AfzTest, RemoteCliqueQualityIsReasonable) {
  // AFZ is a 6+eps composable coreset; on tiny inputs its end-to-end result
  // must be within a modest factor of optimal.
  EuclideanMetric m;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    PointSet pts = GenerateUniformCube(16, 2, seed * 7);
    MrResult r =
        TryRunAfz(pts, m, DiversityProblem::kRemoteClique, Options(4, 2))
            .value();
    double opt =
        ExactDiversityMaximization(DiversityProblem::kRemoteClique, pts, m, 4)
            .value;
    EXPECT_GE(r.diversity * 6.0 + 1e-9, opt) << "seed " << seed;
  }
}

TEST(AfzTest, CppuBeatsOrMatchesAfzOnPlantedData) {
  // The headline of Table 4: CPPU at k' >> k achieves at least comparable
  // remote-clique quality.
  EuclideanMetric m;
  SphereDatasetOptions sopts;
  sopts.n = 2000;
  sopts.k = 6;
  sopts.dim = 2;
  sopts.seed = 11;
  PointSet pts = GenerateSphereDataset(sopts);

  MrResult afz =
      TryRunAfz(pts, m, DiversityProblem::kRemoteClique, Options(6, 4))
          .value();

  MrOptions cppu_opts;
  cppu_opts.k = 6;
  cppu_opts.k_prime = 64;
  cppu_opts.num_partitions = 4;
  cppu_opts.num_workers = 4;
  cppu_opts.seed = 5;
  MapReduceDiversity cppu(&m, DiversityProblem::kRemoteClique, cppu_opts);
  StatusOr<MrResult> cppu_r = cppu.TryRun(Dataset(pts));
  ASSERT_TRUE(cppu_r.ok()) << cppu_r.status().ToString();

  EXPECT_GE(cppu_r->diversity, 0.9 * afz.diversity);
}

// A worker count the simulator would need more threads for than it allows
// is an error before any thread starts, as is zero.
TEST(AfzTest, RejectsWorkerCountsOutsideTheBound) {
  EuclideanMetric m;
  PointSet pts = GenerateUniformCube(50, 2, /*seed=*/3);
  for (size_t workers : {size_t{0}, kMaxMapReduceWorkers + 1}) {
    AfzOptions o = Options(4, 2);
    o.num_workers = workers;
    StatusOr<MrResult> r =
        TryRunAfz(pts, m, DiversityProblem::kRemoteEdge, o);
    ASSERT_FALSE(r.ok()) << workers;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << workers;
  }
}

TEST(AfzDeathTest, RejectsUnsupportedProblems) {
  EuclideanMetric m;
  PointSet pts = GenerateUniformCube(50, 2, /*seed=*/3);
  EXPECT_DEATH((void)TryRunAfz(pts, m, DiversityProblem::kRemoteTree,
                               Options(4, 2)),
               "CHECK failed");
}

}  // namespace
}  // namespace diverse
