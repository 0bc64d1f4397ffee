// End-to-end integration tests: streaming and MapReduce pipelines on the
// paper's data distributions, cross-checked against each other and against
// the sequential algorithm on the full input.

#include <gtest/gtest.h>

#include "core/diversity.h"
#include "core/metric.h"
#include "core/sequential.h"
#include "data/sparse_text.h"
#include "data/synthetic.h"
#include "mapreduce/afz.h"
#include "mapreduce/mr_diversity.h"
#include "streaming/streaming_diversity.h"

namespace diverse {
namespace {

double SequentialBaseline(DiversityProblem p, const PointSet& pts,
                          const Metric& m, size_t k) {
  std::vector<size_t> idx = SolveSequential(p, pts, m, k);
  PointSet sol;
  for (size_t i : idx) sol.push_back(pts[i]);
  return EvaluateDiversity(p, sol, m);
}

TEST(IntegrationTest, StreamingTracksSequentialOnSphereData) {
  EuclideanMetric m;
  SphereDatasetOptions opts;
  opts.n = 20000;
  opts.k = 16;
  opts.seed = 1;
  PointSet pts = GenerateSphereDataset(opts);

  size_t k = 16;
  double seq = SequentialBaseline(DiversityProblem::kRemoteEdge, pts, m, k);

  StreamingDiversity sd(&m, DiversityProblem::kRemoteEdge, k, 4 * k);
  for (const Point& p : pts) sd.Update(p);
  double stream = sd.Finalize().diversity;

  // The streaming result must reach a large fraction of the sequential one.
  EXPECT_GE(stream, 0.5 * seq);
}

TEST(IntegrationTest, MapReduceTracksSequentialOnSphereData) {
  EuclideanMetric m;
  SphereDatasetOptions opts;
  opts.n = 20000;
  opts.k = 16;
  opts.seed = 2;
  PointSet pts = GenerateSphereDataset(opts);

  size_t k = 16;
  double seq = SequentialBaseline(DiversityProblem::kRemoteEdge, pts, m, k);

  MrOptions mr_opts;
  mr_opts.k = k;
  mr_opts.k_prime = 4 * k;
  mr_opts.num_partitions = 8;
  mr_opts.num_workers = 4;
  MapReduceDiversity mr(&m, DiversityProblem::kRemoteEdge, mr_opts);
  StatusOr<MrResult> dist_run = mr.TryRun(Dataset(pts));
  ASSERT_TRUE(dist_run.ok()) << dist_run.status().ToString();
  double dist = dist_run->diversity;

  EXPECT_GE(dist, 0.7 * seq);
}

TEST(IntegrationTest, MapReduceBeatsStreamingCoreset) {
  // Section 7.2: MR ratios are generally better than streaming because GMM
  // (2-approx k-center) builds the core-set instead of the 8-approx doubling
  // algorithm. Compare on the same data, same k'.
  EuclideanMetric m;
  SphereDatasetOptions opts;
  opts.n = 30000;
  opts.k = 8;
  opts.seed = 3;
  PointSet pts = GenerateSphereDataset(opts);
  size_t k = 8, k_prime = 32;

  StreamingDiversity sd(&m, DiversityProblem::kRemoteEdge, k, k_prime);
  for (const Point& p : pts) sd.Update(p);
  double stream = sd.Finalize().diversity;

  MrOptions mr_opts;
  mr_opts.k = k;
  mr_opts.k_prime = k_prime;
  mr_opts.num_partitions = 8;
  mr_opts.num_workers = 4;
  MapReduceDiversity mr(&m, DiversityProblem::kRemoteEdge, mr_opts);
  StatusOr<MrResult> dist_run = mr.TryRun(Dataset(pts));
  ASSERT_TRUE(dist_run.ok()) << dist_run.status().ToString();
  double dist = dist_run->diversity;

  EXPECT_GE(dist, 0.9 * stream);
}

TEST(IntegrationTest, CosineTextPipelineEndToEnd) {
  CosineMetric m;
  SparseTextOptions topts;
  topts.n = 3000;
  topts.vocab_size = 1000;
  topts.num_topics = 16;
  topts.seed = 4;
  PointSet docs = GenerateSparseTextDataset(topts);

  size_t k = 8;
  // Streaming remote-clique (SMM-EXT) on sparse cosine data.
  StreamingDiversity sd(&m, DiversityProblem::kRemoteClique, k, 2 * k);
  for (const Point& d : docs) sd.Update(d);
  StreamingResult sr = sd.Finalize();
  EXPECT_EQ(sr.solution.size(), k);
  // With 16 orthogonal-ish topics, the 8 selected docs should average
  // pairwise distance well above 1 radian.
  EXPECT_GT(sr.diversity / DiversityTermCount(DiversityProblem::kRemoteClique,
                                              k),
            1.0);

  // MapReduce on the same corpus.
  MrOptions mr_opts;
  mr_opts.k = k;
  mr_opts.k_prime = 2 * k;
  mr_opts.num_partitions = 4;
  mr_opts.num_workers = 4;
  MapReduceDiversity mr(&m, DiversityProblem::kRemoteClique, mr_opts);
  StatusOr<MrResult> mres = mr.TryRun(Dataset(docs));
  ASSERT_TRUE(mres.ok()) << mres.status().ToString();
  EXPECT_EQ(mres->solution.size(), k);
  EXPECT_GT(mres->diversity, 0.8 * sr.diversity);
}

TEST(IntegrationTest, AllProblemsAllPipelinesOnOneDataset) {
  EuclideanMetric m;
  PointSet pts = GenerateUniformCube(2000, 3, /*seed=*/5);
  size_t k = 6;
  for (DiversityProblem p : kAllProblems) {
    double seq = SequentialBaseline(p, pts, m, k);

    StreamingDiversity sd(&m, p, k, 3 * k);
    for (const Point& x : pts) sd.Update(x);
    double stream = sd.Finalize().diversity;

    MrOptions mr_opts;
    mr_opts.k = k;
    mr_opts.k_prime = 3 * k;
    mr_opts.num_partitions = 4;
    mr_opts.num_workers = 2;
    MapReduceDiversity mr(&m, p, mr_opts);
    StatusOr<MrResult> dist_run = mr.TryRun(Dataset(pts));
    ASSERT_TRUE(dist_run.ok()) << dist_run.status().ToString();
    double dist = dist_run->diversity;

    EXPECT_GT(stream, 0.4 * seq) << ProblemName(p);
    EXPECT_GT(dist, 0.5 * seq) << ProblemName(p);
  }
}

TEST(IntegrationTest, TwoPassMatchesOnePassQuality) {
  EuclideanMetric m;
  SphereDatasetOptions opts;
  opts.n = 10000;
  opts.k = 8;
  opts.seed = 6;
  PointSet pts = GenerateSphereDataset(opts);
  size_t k = 8, k_prime = 32;

  StreamingDiversity one(&m, DiversityProblem::kRemoteClique, k, k_prime);
  for (const Point& p : pts) one.Update(p);
  double one_div = one.Finalize().diversity;

  TwoPassStreamingDiversity two(&m, DiversityProblem::kRemoteClique, k,
                                k_prime);
  for (const Point& p : pts) two.UpdateFirstPass(p);
  two.EndFirstPass();
  for (const Point& p : pts) two.UpdateSecondPass(p);
  double two_div = two.Finalize().diversity;

  EXPECT_GE(two_div, 0.7 * one_div);
}

TEST(IntegrationTest, ThreeRoundGeneralizedMatchesTwoRoundQuality) {
  EuclideanMetric m;
  SphereDatasetOptions opts;
  opts.n = 10000;
  opts.k = 8;
  opts.seed = 7;
  PointSet pts = GenerateSphereDataset(opts);

  MrOptions mr_opts;
  mr_opts.k = 8;
  mr_opts.k_prime = 32;
  mr_opts.num_partitions = 4;
  mr_opts.num_workers = 4;
  MapReduceDiversity mr(&m, DiversityProblem::kRemoteClique, mr_opts);
  StatusOr<MrResult> two_run = mr.TryRun(Dataset(pts));
  ASSERT_TRUE(two_run.ok()) << two_run.status().ToString();
  double two = two_run->diversity;
  StatusOr<MrResult> three_run = mr.TryRunGeneralized(Dataset(pts));
  ASSERT_TRUE(three_run.ok()) << three_run.status().ToString();
  double three = three_run->diversity;
  EXPECT_GE(three, 0.7 * two);
}

}  // namespace
}  // namespace diverse
