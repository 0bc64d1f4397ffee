// Reproducibility guarantees: every pipeline in the library is a pure
// function of (input, seed). Experiments in the paper are averages over
// many runs; bit-level determinism per seed is what makes those runs
// re-creatable and regressions bisectable.

#include <gtest/gtest.h>

#include "api/solve.h"
#include "core/metric.h"
#include "data/sparse_text.h"
#include "data/synthetic.h"
#include "mapreduce/afz.h"
#include "mapreduce/mr_diversity.h"
#include "streaming/streaming_diversity.h"

namespace diverse {
namespace {

bool SameSolutions(const PointSet& a, const PointSet& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!(a[i] == b[i])) return false;
  }
  return true;
}

TEST(DeterminismTest, GeneratorsAreSeedPure) {
  SphereDatasetOptions s;
  s.n = 500;
  s.k = 8;
  s.seed = 11;
  EXPECT_TRUE(SameSolutions(GenerateSphereDataset(s), GenerateSphereDataset(s)));

  SparseTextOptions t;
  t.n = 300;
  t.vocab_size = 200;
  t.seed = 13;
  EXPECT_TRUE(SameSolutions(GenerateSparseTextDataset(t),
                            GenerateSparseTextDataset(t)));

  // Stream and batch generators draw different variates but are each pure.
  SphereStream sa(s), sb(s);
  while (sa.HasNext()) {
    ASSERT_TRUE(sb.HasNext());
    EXPECT_TRUE(sa.Next() == sb.Next());
  }
}

TEST(DeterminismTest, AllBackendsAreSeedPure) {
  EuclideanMetric metric;
  PointSet pts = GenerateUniformCube(600, 2, /*seed=*/17);
  for (Backend b : {Backend::kSequential, Backend::kStreaming,
                    Backend::kStreamingTwoPass, Backend::kMapReduce,
                    Backend::kMapReduceRandomized,
                    Backend::kMapReduceGeneralized,
                    Backend::kMapReduceRecursive}) {
    SolveOptions opts;
    opts.problem = RequiresInjectiveProxies(DiversityProblem::kRemoteClique)
                       ? DiversityProblem::kRemoteClique
                       : DiversityProblem::kRemoteEdge;
    opts.backend = b;
    opts.k = 5;
    opts.k_prime = 15;
    opts.num_partitions = 4;
    opts.seed = 23;
    StatusOr<SolveResult> r1 = TrySolve(pts, metric, opts);
    ASSERT_TRUE(r1.ok()) << r1.status().ToString();
    StatusOr<SolveResult> r2 = TrySolve(pts, metric, opts);
    ASSERT_TRUE(r2.ok()) << r2.status().ToString();
    EXPECT_TRUE(SameSolutions(r1->solution, r2->solution)) << BackendName(b);
    EXPECT_DOUBLE_EQ(r1->diversity, r2->diversity) << BackendName(b);
    EXPECT_EQ(r1->coreset_size, r2->coreset_size) << BackendName(b);
  }
}

TEST(DeterminismTest, MapReduceParallelismDoesNotChangeResult) {
  // Reducers run concurrently, but each writes only its own slot: the
  // result must not depend on the number of worker threads.
  EuclideanMetric metric;
  PointSet pts = GenerateUniformCube(800, 2, /*seed=*/19);
  PointSet solutions[3];
  size_t workers[] = {1, 3, 8};
  for (int i = 0; i < 3; ++i) {
    MrOptions o;
    o.k = 6;
    o.k_prime = 12;
    o.num_partitions = 6;
    o.num_workers = workers[i];
    o.seed = 29;
    MapReduceDiversity mr(&metric, DiversityProblem::kRemoteTree, o);
    StatusOr<MrResult> r = mr.TryRun(Dataset(pts));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    solutions[i] = std::move(r->solution);
  }
  EXPECT_TRUE(SameSolutions(solutions[0], solutions[1]));
  EXPECT_TRUE(SameSolutions(solutions[1], solutions[2]));
}

TEST(DeterminismTest, DifferentSeedsUsuallyDiffer) {
  EuclideanMetric metric;
  PointSet pts = GenerateUniformCube(600, 2, /*seed=*/31);
  MrOptions o;
  o.k = 5;
  o.k_prime = 10;
  o.num_partitions = 4;
  o.partition = PartitionStrategy::kRandom;
  MapReduceDiversity mr(&metric, DiversityProblem::kRemoteEdge, o);
  MrOptions o2 = o;
  o2.seed = o.seed + 1;
  MapReduceDiversity mr2(&metric, DiversityProblem::kRemoteEdge, o2);
  // Different random partitions -> (almost surely) different core-sets.
  StatusOr<MrResult> r1 = mr.TryRun(Dataset(pts));
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  StatusOr<MrResult> r2 = mr2.TryRun(Dataset(pts));
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  // Values may coincide; the partitions should not produce byte-identical
  // core-set orderings AND identical solutions AND identical sizes all at
  // once more often than rarely. We assert only the weak property that the
  // two runs executed (guarding against seed being ignored entirely would
  // need distribution tests); but if solutions are identical, diversity
  // must also be identical (consistency check).
  if (SameSolutions(r1->solution, r2->solution)) {
    EXPECT_DOUBLE_EQ(r1->diversity, r2->diversity);
  }
}

TEST(DeterminismTest, AfzIsSeedPure) {
  EuclideanMetric metric;
  PointSet pts = GenerateUniformCube(300, 2, /*seed=*/37);
  AfzOptions o;
  o.k = 4;
  o.num_partitions = 3;
  o.seed = 41;
  MrResult r1 = RunAfz(pts, metric, DiversityProblem::kRemoteClique, o);
  MrResult r2 = RunAfz(pts, metric, DiversityProblem::kRemoteClique, o);
  EXPECT_TRUE(SameSolutions(r1.solution, r2.solution));
  EXPECT_DOUBLE_EQ(r1.diversity, r2.diversity);
}

// Recovery determinism: the fault-tolerant executor's re-execution is
// bit-identical, so a run under a deterministic fault schedule equals both
// (a) itself on a second run and (b) the fault-free run — retries and
// speculative duplicates must leave no trace in the output.
TEST(DeterminismTest, RecoveryIsBitIdenticalUnderFaultSchedule) {
  EuclideanMetric metric;
  PointSet pts = GenerateUniformCube(600, 2, /*seed=*/19);
  MrOptions base;
  base.k = 5;
  base.k_prime = 10;
  base.num_partitions = 8;
  base.num_workers = 4;
  base.seed = 19;
  MapReduceDiversity clean(&metric, DiversityProblem::kRemoteClique, base);
  StatusOr<MrResult> want = clean.TryRun(Dataset(pts));
  ASSERT_TRUE(want.ok());

  StatusOr<FaultInjector> faults = FaultInjector::Parse(
      "coreset:0:0:crash,coreset:4:0:wrong-output:13,"
      "coreset:6:0:straggler:200");
  ASSERT_TRUE(faults.ok());
  MrOptions faulty = base;
  faulty.faults = &*faults;
  faulty.task_timeout_ms = 25;
  MapReduceDiversity mr(&metric, DiversityProblem::kRemoteClique, faulty);
  StatusOr<MrResult> r1 = mr.TryRun(Dataset(pts));
  StatusOr<MrResult> r2 = mr.TryRun(Dataset(pts));
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(SameSolutions(r1->solution, r2->solution));
  EXPECT_TRUE(SameSolutions(r1->solution, want->solution));
  EXPECT_EQ(r1->diversity, want->diversity);
  // The schedule itself is deterministic too: both faulty runs saw the
  // same number of injected faults.
  EXPECT_EQ(r1->faults_injected, 3u);
  EXPECT_EQ(r2->faults_injected, 3u);
}

TEST(DeterminismTest, StreamingIsInputPure) {
  CosineMetric metric;
  SparseTextOptions t;
  t.n = 800;
  t.vocab_size = 300;
  t.seed = 43;
  PointSet docs = GenerateSparseTextDataset(t);
  StreamingResult results[2];
  for (int i = 0; i < 2; ++i) {
    StreamingDiversity sd(&metric, DiversityProblem::kRemoteStar, 5, 15);
    for (const Point& d : docs) sd.Update(d);
    results[i] = sd.Finalize();
  }
  EXPECT_TRUE(SameSolutions(results[0].solution, results[1].solution));
  EXPECT_EQ(results[0].phases, results[1].phases);
  EXPECT_EQ(results[0].coreset_size, results[1].coreset_size);
}

}  // namespace
}  // namespace diverse
