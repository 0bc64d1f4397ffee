// Degenerate and adversarial inputs across the whole stack: duplicates,
// k = 1, k = n, all-identical points, collinear points, zero vectors,
// single-partition MapReduce, streams shorter than k'. These are the inputs
// that crash naive implementations of farthest-first / doubling algorithms.

#include <gtest/gtest.h>

#include "api/solve.h"
#include "core/exact.h"
#include "core/metric.h"
#include "core/sequential.h"
#include "data/sparse_text.h"
#include "data/synthetic.h"
#include "streaming/sliding_window.h"
#include "streaming/smm.h"

namespace diverse {
namespace {

PointSet AllIdentical(size_t n) {
  return PointSet(n, Point::Dense2(1.0f, -2.0f));
}

PointSet Collinear(size_t n) {
  PointSet pts;
  for (size_t i = 0; i < n; ++i) {
    pts.push_back(Point::Dense({static_cast<float>(i), 0.0f}));
  }
  return pts;
}

PointSet WithDuplicates(size_t n, uint64_t seed) {
  PointSet pts = GenerateUniformCube(n / 2, 2, seed);
  PointSet out;
  for (size_t i = 0; i < n; ++i) out.push_back(pts[i % pts.size()]);
  return out;
}

class EdgeCaseBackendTest : public ::testing::TestWithParam<Backend> {};

TEST_P(EdgeCaseBackendTest, AllIdenticalPoints) {
  EuclideanMetric metric;
  PointSet pts = AllIdentical(300);
  SolveOptions opts;
  opts.problem = DiversityProblem::kRemoteClique;
  opts.backend = GetParam();
  opts.k = 4;
  opts.k_prime = 8;
  opts.num_partitions = 2;
  StatusOr<SolveResult> r = TrySolve(pts, metric, opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->solution.size(), 4u);
  EXPECT_DOUBLE_EQ(r->diversity, 0.0);
}

TEST_P(EdgeCaseBackendTest, HeavyDuplicates) {
  EuclideanMetric metric;
  PointSet pts = WithDuplicates(400, /*seed=*/5);
  SolveOptions opts;
  opts.problem = DiversityProblem::kRemoteEdge;
  opts.backend = GetParam();
  opts.k = 5;
  opts.k_prime = 10;
  opts.num_partitions = 2;
  StatusOr<SolveResult> r = TrySolve(pts, metric, opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->solution.size(), 5u);
  EXPECT_GT(r->diversity, 0.0);  // 200 distinct locations exist
}

TEST_P(EdgeCaseBackendTest, CollinearPoints) {
  EuclideanMetric metric;
  PointSet pts = Collinear(200);
  SolveOptions opts;
  opts.problem = DiversityProblem::kRemoteTree;
  opts.backend = GetParam();
  opts.k = 4;
  opts.k_prime = 8;
  opts.num_partitions = 2;
  StatusOr<SolveResult> r = TrySolve(pts, metric, opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->solution.size(), 4u);
  // Best 4-point MST on [0,199] has weight 199 (the endpoints plus any two
  // inner points chained); any solution must reach at least half of that via
  // the coreset guarantee.
  EXPECT_GE(r->diversity, 99.0);
}

TEST_P(EdgeCaseBackendTest, KEqualsOne) {
  EuclideanMetric metric;
  PointSet pts = GenerateUniformCube(100, 2, /*seed=*/7);
  SolveOptions opts;
  opts.problem = DiversityProblem::kRemoteEdge;
  opts.backend = GetParam();
  opts.k = 1;
  opts.k_prime = 4;
  opts.num_partitions = 2;
  StatusOr<SolveResult> r = TrySolve(pts, metric, opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->solution.size(), 1u);
  EXPECT_DOUBLE_EQ(r->diversity, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, EdgeCaseBackendTest,
    ::testing::Values(Backend::kSequential, Backend::kStreaming,
                      Backend::kMapReduce, Backend::kMapReduceRecursive),
    [](const ::testing::TestParamInfo<Backend>& info) {
      std::string name = BackendName(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(EdgeCaseTest, StreamShorterThanKPrime) {
  EuclideanMetric metric;
  Smm smm(&metric, 4, 100);
  PointSet pts = GenerateUniformCube(20, 2, /*seed=*/9);
  for (const Point& p : pts) smm.Update(p);
  EXPECT_EQ(smm.Finalize().size(), 20u);
}

TEST(EdgeCaseTest, SmmAllIdenticalStream) {
  EuclideanMetric metric;
  Smm smm(&metric, 2, 4);
  for (int i = 0; i < 100; ++i) smm.Update(Point::Dense2(3, 3));
  PointSet coreset = smm.Finalize();
  EXPECT_GE(coreset.size(), 1u);  // cannot produce 2 distinct locations
}

TEST(EdgeCaseTest, SmmTwoLocationsStream) {
  EuclideanMetric metric;
  SmmExt smm(&metric, 3, 6);
  for (int i = 0; i < 200; ++i) {
    smm.Update(Point::Dense2(0, 0));
    smm.Update(Point::Dense2(5, 5));
  }
  PointSet coreset = smm.Finalize();
  EXPECT_GE(coreset.size(), 3u);  // delegates supply the third point
}

TEST(EdgeCaseTest, GreedyMatchingCollinearForcesBufferReuse) {
  // On a line the heaviest pairs massively share endpoints (0 and n-1),
  // stressing the top-pair buffer's skip/refill logic. Matrix variant is the
  // ground truth.
  EuclideanMetric metric;
  PointSet pts = Collinear(300);
  DistanceMatrix d(pts, metric);
  for (size_t k : {2u, 4u, 7u, 12u}) {
    EXPECT_EQ(GreedyMatchingOnPoints(pts, metric, k),
              GreedyMatchingOnMatrix(d, k))
        << "k=" << k;
  }
}

TEST(EdgeCaseTest, GreedyMatchingTinyInputs) {
  EuclideanMetric metric;
  PointSet two = Collinear(2);
  EXPECT_EQ(GreedyMatchingOnPoints(two, metric, 2).size(), 2u);
  PointSet three = Collinear(3);
  EXPECT_EQ(GreedyMatchingOnPoints(three, metric, 3).size(), 3u);
  EXPECT_EQ(GreedyMatchingOnPoints(three, metric, 1).size(), 1u);
}

TEST(EdgeCaseTest, ZeroVectorsUnderCosine) {
  CosineMetric metric;
  PointSet pts;
  for (int i = 0; i < 50; ++i) {
    pts.push_back(i % 5 == 0 ? Point::Dense2(0, 0)
                             : Point::Dense2(static_cast<float>(i), 1.0f));
  }
  SolveOptions opts;
  opts.problem = DiversityProblem::kRemoteEdge;
  opts.backend = Backend::kStreaming;
  opts.k = 3;
  opts.k_prime = 6;
  StatusOr<SolveResult> r = TrySolve(pts, metric, opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->solution.size(), 3u);
}

TEST(EdgeCaseTest, ExactSolversOnDegenerateMatrices) {
  // All-zero distance matrix: every subset is optimal with value 0.
  DistanceMatrix zero(6);
  for (DiversityProblem p : kAllProblems) {
    auto r = ExactDiversityMaximization(p, zero, 3);
    EXPECT_DOUBLE_EQ(r.value, 0.0) << ProblemName(p);
    EXPECT_EQ(r.best_subset.size(), 3u);
  }
  EXPECT_DOUBLE_EQ(ExactOptimalRange(zero, 2), 0.0);
  EXPECT_DOUBLE_EQ(ExactOptimalFarness(zero, 2), 0.0);
}

// --- Sparse degenerate inputs across all backends --------------------------
// Empty, singleton, and all-duplicate CSR inputs through the sequential,
// streaming (SMM), sliding-window, and MapReduce paths. These drive the
// sparse tile engine on its hardest blocks (empty unions, single-lane
// blocks, identical supports) and — via a reducer fleet larger than the
// input — the partitioner's empty-tail handling at the same time.

Point SparseDoc() {
  return Point::Sparse({2, 7, 19}, {1.0f, 2.0f, 1.0f}, 32);
}

PointSet AllDuplicateSparse(size_t n) { return PointSet(n, SparseDoc()); }

// Empty input is k > n on every backend: rejected, never silently solved.
TEST_P(EdgeCaseBackendTest, EmptyInputIsInvalidArgument) {
  CosineMetric metric;
  SolveOptions opts;
  opts.problem = DiversityProblem::kRemoteEdge;
  opts.backend = GetParam();
  opts.k = 3;
  opts.k_prime = 6;
  opts.num_partitions = 4;
  StatusOr<SolveResult> r = TrySolve(PointSet{}, metric, opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_P(EdgeCaseBackendTest, SingletonSparseInput) {
  CosineMetric metric;
  PointSet pts;
  pts.push_back(SparseDoc());
  SolveOptions opts;
  opts.problem = DiversityProblem::kRemoteEdge;
  opts.backend = GetParam();
  opts.k = 1;
  opts.k_prime = 6;
  // More reducers than points: three of the four partitions are empty.
  opts.num_partitions = 4;
  StatusOr<SolveResult> r = TrySolve(pts, metric, opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->solution.size(), 1u);
  EXPECT_DOUBLE_EQ(r->diversity, 0.0);
}

TEST_P(EdgeCaseBackendTest, AllDuplicateSparsePoints) {
  CosineMetric metric;
  PointSet pts = AllDuplicateSparse(120);
  SolveOptions opts;
  opts.problem = DiversityProblem::kRemoteClique;
  opts.backend = GetParam();
  opts.k = 4;
  opts.k_prime = 8;
  opts.num_partitions = 3;
  StatusOr<SolveResult> r = TrySolve(pts, metric, opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->solution.size(), 4u);
  EXPECT_DOUBLE_EQ(r->diversity, 0.0);
}

TEST(EdgeCaseTest, SmmSingletonSparseStream) {
  CosineMetric metric;
  Smm smm(&metric, 2, 4);
  smm.Update(SparseDoc());
  PointSet coreset = smm.Finalize();
  ASSERT_EQ(coreset.size(), 1u);
  EXPECT_TRUE(coreset[0] == SparseDoc());
}

TEST(EdgeCaseTest, SmmAllDuplicateSparseStream) {
  CosineMetric metric;
  SmmExt smm(&metric, 3, 6);
  for (int i = 0; i < 200; ++i) smm.Update(SparseDoc());
  EXPECT_GE(smm.Finalize().size(), 1u);
}

TEST(EdgeCaseTest, SlidingWindowSparseStream) {
  CosineMetric metric;
  SlidingWindowOptions o;
  o.problem = DiversityProblem::kRemoteEdge;
  o.k = 3;
  o.k_prime = 6;
  o.window = 40;
  o.block = 10;
  SlidingWindowDiversity sw(&metric, o);
  SparseTextOptions sopts;
  sopts.n = 150;
  sopts.vocab_size = 100;
  sopts.min_terms = 3;
  sopts.max_terms = 15;
  sopts.seed = 17;
  for (const Point& p : GenerateSparseTextDataset(sopts)) sw.Update(p);
  StreamingResult r = sw.Query();
  EXPECT_EQ(r.solution.size(), 3u);
  EXPECT_GT(r.diversity, 0.0);
  EXPECT_GE(r.peak_memory_points, sw.StoredPoints());
}

TEST(EdgeCaseTest, SlidingWindowSingletonAndDuplicateSparse) {
  CosineMetric metric;
  SlidingWindowOptions o;
  o.problem = DiversityProblem::kRemoteClique;
  o.k = 2;
  o.k_prime = 4;
  o.window = 20;
  o.block = 5;
  SlidingWindowDiversity single(&metric, o);
  single.Update(SparseDoc());
  StreamingResult r1 = single.Query();
  EXPECT_EQ(r1.solution.size(), 1u);
  EXPECT_DOUBLE_EQ(r1.diversity, 0.0);

  SlidingWindowDiversity dup(&metric, o);
  for (int i = 0; i < 100; ++i) dup.Update(SparseDoc());
  StreamingResult r2 = dup.Query();
  EXPECT_GE(r2.solution.size(), 1u);
  EXPECT_DOUBLE_EQ(r2.diversity, 0.0);
}

TEST(EdgeCaseTest, MapReduceSinglePartition) {
  EuclideanMetric metric;
  PointSet pts = GenerateUniformCube(100, 2, /*seed=*/11);
  SolveOptions opts;
  opts.problem = DiversityProblem::kRemoteCycle;
  opts.backend = Backend::kMapReduce;
  opts.k = 4;
  opts.k_prime = 8;
  opts.num_partitions = 1;
  StatusOr<SolveResult> r = TrySolve(pts, metric, opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->solution.size(), 4u);
  EXPECT_GT(r->diversity, 0.0);
}

}  // namespace
}  // namespace diverse
