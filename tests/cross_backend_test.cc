// Cross-backend consistency: every pipeline in the library solves the same
// problem, so on well-separated instances (where the optimum is unambiguous)
// they must essentially agree, and on random instances their values must sit
// within the combined approximation envelope of their guarantees.

#include <algorithm>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "api/solve.h"
#include "core/exact.h"
#include "core/metric.h"
#include "data/sparse_text.h"
#include "data/synthetic.h"
#include "util/rng.h"

namespace diverse {
namespace {

// On data with k planted far-away points, every backend must recover a
// solution whose diversity is close to the planted separation.
class PlantedRecoveryTest : public ::testing::TestWithParam<Backend> {};

TEST_P(PlantedRecoveryTest, EveryBackendRecoversPlantedStructure) {
  Backend backend = GetParam();
  EuclideanMetric metric;
  SphereDatasetOptions data;
  data.n = 4000;
  data.k = 6;
  data.seed = 17;
  PointSet pts = GenerateSphereDataset(data);

  SolveOptions opts;
  opts.problem = DiversityProblem::kRemoteClique;
  opts.backend = backend;
  opts.k = 6;
  opts.k_prime = 24;
  opts.num_partitions = 4;
  StatusOr<SolveResult> r = TrySolve(pts, metric, opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->solution.size(), 6u);

  // 6 random unit vectors have expected pairwise distance ~sqrt(2); a
  // solution living on the planted surface has clique value well above what
  // any interior set can reach (diameter 1.6 at radius 0.8 only in rare
  // antipodal configurations).
  SolveOptions seq;
  seq.problem = DiversityProblem::kRemoteClique;
  seq.backend = Backend::kSequential;
  seq.k = 6;
  StatusOr<SolveResult> reference_run = TrySolve(pts, metric, seq);
  ASSERT_TRUE(reference_run.ok()) << reference_run.status().ToString();
  double reference = reference_run->diversity;
  EXPECT_GE(r->diversity, 0.75 * reference) << BackendName(backend);
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, PlantedRecoveryTest,
    ::testing::Values(Backend::kSequential, Backend::kStreaming,
                      Backend::kStreamingTwoPass, Backend::kMapReduce,
                      Backend::kMapReduceRandomized,
                      Backend::kMapReduceGeneralized,
                      Backend::kMapReduceRecursive),
    [](const ::testing::TestParamInfo<Backend>& info) {
      std::string name = BackendName(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// Exhaustive small-instance sweep: every backend x problem combination is
// compared against the brute-force optimum under a conservative envelope.
TEST(CrossBackendTest, AllBackendsWithinEnvelopeOfExactOptimum) {
  EuclideanMetric metric;
  const Backend backends[] = {Backend::kSequential, Backend::kStreaming,
                              Backend::kMapReduce,
                              Backend::kMapReduceRecursive};
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    PointSet pts = GenerateUniformCube(18, 2, seed * 997);
    for (DiversityProblem p : kAllProblems) {
      double opt = ExactDiversityMaximization(p, pts, metric, 4).value;
      for (Backend b : backends) {
        SolveOptions opts;
        opts.problem = p;
        opts.backend = b;
        opts.k = 4;
        opts.k_prime = 8;
        opts.num_partitions = 2;
        StatusOr<SolveResult> r = TrySolve(pts, metric, opts);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        // alpha <= 4 for all problems; factor 2 envelope for core-set loss
        // on such tiny inputs.
        EXPECT_GE(r->diversity * SequentialAlpha(p) * 2.0 + 1e-9, opt)
            << BackendName(b) << " " << ProblemName(p) << " seed " << seed;
        EXPECT_LE(r->diversity, opt + 1e-9)
            << BackendName(b) << " " << ProblemName(p) << " seed " << seed;
      }
    }
  }
}

// Streaming is order-sensitive in principle; quality must nevertheless be
// stable across stream permutations.
TEST(CrossBackendTest, StreamingStableUnderPermutations) {
  EuclideanMetric metric;
  SphereDatasetOptions data;
  data.n = 3000;
  data.k = 8;
  data.seed = 23;
  PointSet pts = GenerateSphereDataset(data);

  double lo = 1e100, hi = 0.0;
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    PointSet shuffled = pts;
    Rng rng(seed);
    for (size_t i = shuffled.size(); i > 1; --i) {
      std::swap(shuffled[i - 1], shuffled[rng.NextBounded(i)]);
    }
    SolveOptions opts;
    opts.problem = DiversityProblem::kRemoteEdge;
    opts.backend = Backend::kStreaming;
    opts.k = 8;
    opts.k_prime = 32;
    StatusOr<SolveResult> div_run = TrySolve(shuffled, metric, opts);
    ASSERT_TRUE(div_run.ok()) << div_run.status().ToString();
    double div = div_run->diversity;
    lo = std::min(lo, div);
    hi = std::max(hi, div);
  }
  EXPECT_GT(lo, 0.0);
  EXPECT_LT(hi / lo, 1.75);  // no catastrophic order-sensitivity
}

// The full pipeline also works end-to-end on sparse cosine data for every
// backend (regression guard for representation-specific bugs).
TEST(CrossBackendTest, SparseCosineAllBackends) {
  CosineMetric metric;
  SparseTextOptions topts;
  topts.n = 1500;
  topts.vocab_size = 800;
  topts.num_topics = 12;
  topts.seed = 29;
  PointSet docs = GenerateSparseTextDataset(topts);
  for (Backend b : {Backend::kSequential, Backend::kStreaming,
                    Backend::kStreamingTwoPass, Backend::kMapReduce,
                    Backend::kMapReduceGeneralized}) {
    SolveOptions opts;
    opts.problem = DiversityProblem::kRemoteStar;
    opts.backend = b;
    opts.k = 5;
    opts.k_prime = 15;
    opts.num_partitions = 3;
    StatusOr<SolveResult> r = TrySolve(docs, metric, opts);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->solution.size(), 5u) << BackendName(b);
    EXPECT_GT(r->diversity, 0.0) << BackendName(b);
  }
}

// Manhattan and Jaccard metrics through the full MapReduce pipeline
// (the algorithms are metric-oblivious; verify no hidden Euclidean
// assumptions).
TEST(CrossBackendTest, AlternativeMetricsEndToEnd) {
  PointSet pts = GenerateUniformCube(600, 3, /*seed=*/31);
  ManhattanMetric manhattan;
  SolveOptions opts;
  opts.problem = DiversityProblem::kRemoteTree;
  opts.backend = Backend::kMapReduce;
  opts.k = 5;
  opts.k_prime = 20;
  opts.num_partitions = 4;
  StatusOr<SolveResult> r = TrySolve(pts, manhattan, opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->solution.size(), 5u);
  EXPECT_GT(r->diversity, 0.0);

  SparseTextOptions topts;
  topts.n = 400;
  topts.vocab_size = 300;
  topts.seed = 37;
  PointSet docs = GenerateSparseTextDataset(topts);
  JaccardMetric jaccard;
  opts.problem = DiversityProblem::kRemoteEdge;
  opts.backend = Backend::kStreaming;
  StatusOr<SolveResult> rj = TrySolve(docs, jaccard, opts);
  ASSERT_TRUE(rj.ok()) << rj.status().ToString();
  EXPECT_EQ(rj->solution.size(), 5u);
  EXPECT_GT(rj->diversity, 0.0);
}

}  // namespace
}  // namespace diverse
