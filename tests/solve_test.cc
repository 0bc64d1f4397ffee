#include "api/solve.h"

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/metric.h"
#include "data/synthetic.h"

namespace diverse {
namespace {

TEST(SolveTest, BackendNamesRoundTrip) {
  for (Backend b :
       {Backend::kSequential, Backend::kStreaming, Backend::kStreamingTwoPass,
        Backend::kMapReduce, Backend::kMapReduceRandomized,
        Backend::kMapReduceGeneralized, Backend::kMapReduceRecursive}) {
    bool ok = false;
    EXPECT_EQ(ParseBackend(BackendName(b), &ok), b);
    EXPECT_TRUE(ok);
  }
  bool ok = true;
  ParseBackend("nope", &ok);
  EXPECT_FALSE(ok);
}

// Every backend must return k points with positive diversity for every
// problem it supports.
struct SolveCase {
  Backend backend;
  DiversityProblem problem;
};

class SolveBackendTest : public ::testing::TestWithParam<SolveCase> {};

TEST_P(SolveBackendTest, ProducesValidSolution) {
  const SolveCase& c = GetParam();
  EuclideanMetric metric;
  PointSet pts = GenerateUniformCube(800, 2, /*seed=*/11);
  SolveOptions opts;
  opts.problem = c.problem;
  opts.backend = c.backend;
  opts.k = 6;
  StatusOr<SolveResult> r = TrySolve(pts, metric, opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->solution.size(), 6u);
  EXPECT_GT(r->diversity, 0.0);
  EXPECT_GE(r->seconds, 0.0);
  if (c.backend != Backend::kSequential) {
    EXPECT_GT(r->coreset_size, 0u);
    EXPECT_GE(r->rounds_or_passes, 1u);
  }
}

std::vector<SolveCase> MakeCases() {
  std::vector<SolveCase> cases;
  for (DiversityProblem p : kAllProblems) {
    for (Backend b : {Backend::kSequential, Backend::kStreaming,
                      Backend::kMapReduce, Backend::kMapReduceRandomized,
                      Backend::kMapReduceRecursive}) {
      cases.push_back({b, p});
    }
    if (RequiresInjectiveProxies(p)) {
      cases.push_back({Backend::kStreamingTwoPass, p});
      cases.push_back({Backend::kMapReduceGeneralized, p});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, SolveBackendTest, ::testing::ValuesIn(MakeCases()),
    [](const ::testing::TestParamInfo<SolveCase>& info) {
      std::string name = BackendName(info.param.backend) + "_" +
                         ProblemName(info.param.problem);
      for (char& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

TEST(SolveTest, AutoDefaultsApplied) {
  EuclideanMetric metric;
  PointSet pts = GenerateUniformCube(200, 2, /*seed=*/12);
  SolveOptions opts;
  opts.backend = Backend::kMapReduce;
  opts.k = 4;  // k_prime, partitions, workers all auto
  StatusOr<SolveResult> r = TrySolve(pts, metric, opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->solution.size(), 4u);
  // auto k' = 16, auto partitions = 8 -> coreset 8*16.
  EXPECT_EQ(r->coreset_size, 128u);
}

// More partitions than points is valid (the extra reducers see empty
// partitions); only k > n is rejected.
TEST(SolveTest, MorePartitionsThanPoints) {
  EuclideanMetric metric;
  PointSet pts = GenerateUniformCube(3, 2, /*seed=*/13);
  SolveOptions opts;
  opts.backend = Backend::kMapReduce;
  opts.k = 3;
  opts.num_partitions = 16;
  StatusOr<SolveResult> r = TrySolve(pts, metric, opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->solution.size(), 3u);  // whole input
}

// ---------------------------------------------------------------------------
// TrySolve validation: structurally invalid requests are rejected, never
// adjusted.

TEST(TrySolveTest, RejectsZeroK) {
  EuclideanMetric metric;
  PointSet pts = GenerateUniformCube(50, 2, /*seed=*/31);
  SolveOptions opts;
  opts.k = 0;
  StatusOr<SolveResult> r = TrySolve(pts, metric, opts);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(TrySolveTest, RejectsKLargerThanInput) {
  EuclideanMetric metric;
  PointSet pts = GenerateUniformCube(10, 2, /*seed=*/32);
  SolveOptions opts;
  opts.k = 11;
  StatusOr<SolveResult> r = TrySolve(pts, metric, opts);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  // Empty input is the same violation (k > 0 = n), not a special case.
  StatusOr<SolveResult> empty = TrySolve(PointSet{}, metric, opts);
  EXPECT_FALSE(empty.ok());
}

TEST(TrySolveTest, RejectsKPrimeBelowK) {
  EuclideanMetric metric;
  PointSet pts = GenerateUniformCube(100, 2, /*seed=*/33);
  SolveOptions opts;
  opts.k = 8;
  opts.k_prime = 4;  // nonzero and < k
  StatusOr<SolveResult> r = TrySolve(pts, metric, opts);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(TrySolveTest, RejectsNonFiniteCoordinates) {
  EuclideanMetric metric;
  PointSet pts = GenerateUniformCube(20, 2, /*seed=*/34);
  pts[7] = Point::Dense({0.5f, std::numeric_limits<float>::quiet_NaN()});
  SolveOptions opts;
  opts.k = 3;
  StatusOr<SolveResult> r = TrySolve(pts, metric, opts);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  // The error names the offending point.
  EXPECT_NE(r.status().message().find("7"), std::string::npos)
      << r.status().message();
}

TEST(TrySolveTest, RejectsMixedDimensions) {
  EuclideanMetric metric;
  PointSet pts = GenerateUniformCube(20, 3, /*seed=*/35);
  pts[5] = Point::Dense({0.5f, 0.5f, 0.5f, 0.5f});
  SolveOptions opts;
  opts.k = 3;
  StatusOr<SolveResult> r = TrySolve(pts, metric, opts);
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("point 5 has dim 4"), std::string::npos)
      << r.status().message();
}

TEST(TrySolveTest, RejectsGeneralizedBackendOnNonInjectiveProblem) {
  EuclideanMetric metric;
  PointSet pts = GenerateUniformCube(100, 2, /*seed=*/35);
  for (Backend b : {Backend::kStreamingTwoPass,
                    Backend::kMapReduceGeneralized}) {
    SolveOptions opts;
    opts.backend = b;
    opts.problem = DiversityProblem::kRemoteEdge;  // not injective-proxy
    opts.k = 4;
    StatusOr<SolveResult> r = TrySolve(pts, metric, opts);
    EXPECT_FALSE(r.ok()) << BackendName(b);
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
}

// The PointSet overload only wraps its input in a Dataset: both overloads
// give the same answer on every backend.
TEST(TrySolveTest, PointSetAndDatasetOverloadsAgreeOnAllBackends) {
  EuclideanMetric metric;
  PointSet pts = GenerateUniformCube(300, 2, /*seed=*/36);
  Dataset data(pts);
  for (Backend b :
       {Backend::kSequential, Backend::kStreaming, Backend::kStreamingTwoPass,
        Backend::kMapReduce, Backend::kMapReduceRandomized,
        Backend::kMapReduceGeneralized, Backend::kMapReduceRecursive}) {
    SolveOptions opts;
    opts.problem = DiversityProblem::kRemoteClique;
    opts.backend = b;
    opts.k = 6;
    opts.seed = 36;
    StatusOr<SolveResult> want = TrySolve(data, metric, opts);
    StatusOr<SolveResult> got = TrySolve(pts, metric, opts);
    ASSERT_TRUE(want.ok()) << BackendName(b) << ": " << want.status().ToString();
    ASSERT_TRUE(got.ok()) << BackendName(b) << ": " << got.status().ToString();
    EXPECT_EQ(got->solution, want->solution) << BackendName(b);
    EXPECT_EQ(got->diversity, want->diversity) << BackendName(b);
    EXPECT_EQ(got->coreset_size, want->coreset_size) << BackendName(b);
    EXPECT_EQ(got->rounds_or_passes, want->rounds_or_passes) << BackendName(b);
    EXPECT_FALSE(got->degraded.has_value());
  }
}

// A Dataset that never held points (AssignGatherColumnar copies only
// columns) solves exactly like the same rows built from their points.
TEST(TrySolveTest, GatheredDatasetSolvesLikeItsPointsOnAllBackends) {
  EuclideanMetric metric;
  const PointSet pts = GenerateUniformCube(400, 3, /*seed=*/37);
  const Dataset source(pts);
  std::vector<uint32_t> rows;
  PointSet picked;
  for (uint32_t r = 399; r >= 100; r -= 2) {
    rows.push_back(r);
    picked.push_back(pts[r]);
  }
  Dataset gathered;
  gathered.AssignGatherColumnar(source, rows);
  for (Backend b :
       {Backend::kSequential, Backend::kStreaming, Backend::kStreamingTwoPass,
        Backend::kMapReduce, Backend::kMapReduceRandomized,
        Backend::kMapReduceGeneralized, Backend::kMapReduceRecursive}) {
    SolveOptions opts;
    opts.problem = DiversityProblem::kRemoteClique;
    opts.backend = b;
    opts.k = 6;
    opts.seed = 37;
    StatusOr<SolveResult> want = TrySolve(picked, metric, opts);
    StatusOr<SolveResult> got = TrySolve(gathered, metric, opts);
    ASSERT_TRUE(want.ok()) << BackendName(b) << ": " << want.status().ToString();
    ASSERT_TRUE(got.ok()) << BackendName(b) << ": " << got.status().ToString();
    EXPECT_EQ(got->solution, want->solution) << BackendName(b);
    EXPECT_EQ(got->diversity, want->diversity) << BackendName(b);
    EXPECT_EQ(got->coreset_size, want->coreset_size) << BackendName(b);
    EXPECT_EQ(got->rounds_or_passes, want->rounds_or_passes) << BackendName(b);
  }
}

TEST(SolveTest, SequentialMatchesDirectCall) {
  EuclideanMetric metric;
  PointSet pts = GenerateUniformCube(100, 2, /*seed=*/14);
  SolveOptions opts;
  opts.problem = DiversityProblem::kRemoteEdge;
  opts.k = 5;
  StatusOr<SolveResult> r = TrySolve(pts, metric, opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rounds_or_passes, 0u);
  EXPECT_EQ(r->coreset_size, 0u);
  EXPECT_EQ(r->solution.size(), 5u);
}

}  // namespace
}  // namespace diverse
