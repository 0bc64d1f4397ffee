#include "core/sequential.h"

#include <set>

#include <gtest/gtest.h>

#include "core/exact.h"
#include "core/metric.h"
#include "data/synthetic.h"

namespace diverse {
namespace {

TEST(GmmOnMatrixTest, MatchesPointBasedGmm) {
  EuclideanMetric m;
  PointSet pts = GenerateUniformCube(40, 2, /*seed=*/1);
  DistanceMatrix d(pts, m);
  std::vector<size_t> via_matrix = GmmOnMatrix(d, 6);
  std::vector<size_t> via_points =
      SolveSequential(DiversityProblem::kRemoteEdge, Dataset(pts), m, 6);
  EXPECT_EQ(via_matrix, via_points);
}

TEST(GreedyMatchingTest, EvenKPicksDistinctPoints) {
  EuclideanMetric m;
  PointSet pts = GenerateUniformCube(30, 2, /*seed=*/2);
  DistanceMatrix d(pts, m);
  std::vector<size_t> sol = GreedyMatchingOnMatrix(d, 6);
  EXPECT_EQ(sol.size(), 6u);
  std::set<size_t> unique(sol.begin(), sol.end());
  EXPECT_EQ(unique.size(), 6u);
}

TEST(GreedyMatchingTest, OddK) {
  EuclideanMetric m;
  PointSet pts = GenerateUniformCube(30, 2, /*seed=*/3);
  DistanceMatrix d(pts, m);
  std::vector<size_t> sol = GreedyMatchingOnMatrix(d, 7);
  EXPECT_EQ(sol.size(), 7u);
  std::set<size_t> unique(sol.begin(), sol.end());
  EXPECT_EQ(unique.size(), 7u);
}

TEST(GreedyMatchingTest, FirstPairIsDiameter) {
  EuclideanMetric m;
  PointSet pts = GenerateUniformCube(25, 2, /*seed=*/4);
  DistanceMatrix d(pts, m);
  std::vector<size_t> sol = GreedyMatchingOnMatrix(d, 2);
  double diameter = 0.0;
  for (size_t i = 0; i < pts.size(); ++i) {
    for (size_t j = i + 1; j < pts.size(); ++j) {
      diameter = std::max(diameter, d.at(i, j));
    }
  }
  EXPECT_DOUBLE_EQ(d.at(sol[0], sol[1]), diameter);
}

TEST(GreedyMatchingTest, PointAndMatrixVariantsAgree) {
  EuclideanMetric m;
  PointSet pts = GenerateUniformCube(35, 2, /*seed=*/5);
  DistanceMatrix d(pts, m);
  const Dataset data(pts);
  EXPECT_EQ(GreedyMatchingOnMatrix(d, 8), GreedyMatchingOnDataset(data, m, 8));
  EXPECT_EQ(GreedyMatchingOnMatrix(d, 5), GreedyMatchingOnDataset(data, m, 5));
}

// Approximation guarantees of Table 1 against brute-force optima.
class SequentialApproxTest
    : public ::testing::TestWithParam<DiversityProblem> {};

TEST_P(SequentialApproxTest, WithinAlphaOfOptimal) {
  DiversityProblem problem = GetParam();
  double alpha = SequentialAlpha(problem);
  EuclideanMetric m;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    PointSet pts = GenerateUniformCube(13, 2, seed * 17);
    DistanceMatrix d(pts, m);
    for (size_t k = 2; k <= 6; ++k) {
      std::vector<size_t> sol = SolveSequentialOnMatrix(problem, d, k);
      ASSERT_EQ(sol.size(), k);
      double got = EvaluateDiversity(problem, d.Restrict(sol));
      double opt = ExactDiversityMaximization(problem, d, k).value;
      EXPECT_GE(got * alpha + 1e-9, opt)
          << ProblemName(problem) << " seed " << seed << " k " << k
          << " got " << got << " opt " << opt;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllProblems, SequentialApproxTest, ::testing::ValuesIn(kAllProblems),
    [](const ::testing::TestParamInfo<DiversityProblem>& info) {
      std::string name = ProblemName(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(LocalSearchRemoteCliqueTest, NeverDecreasesObjective) {
  EuclideanMetric m;
  PointSet pts = GenerateUniformCube(50, 2, /*seed=*/6);
  std::vector<size_t> initial = {0, 1, 2, 3};
  double before = EvaluateDiversity(
      DiversityProblem::kRemoteClique,
      DistanceMatrix(pts, m).Restrict(initial));
  std::vector<size_t> improved =
      LocalSearchRemoteClique(pts, m, initial, /*max_sweeps=*/16);
  double after = EvaluateDiversity(
      DiversityProblem::kRemoteClique,
      DistanceMatrix(pts, m).Restrict(improved));
  EXPECT_GE(after + 1e-9, before);
}

TEST(LocalSearchRemoteCliqueTest, ReachesLocalOptimum) {
  EuclideanMetric m;
  PointSet pts = GenerateUniformCube(30, 2, /*seed=*/7);
  std::vector<size_t> sol =
      LocalSearchRemoteClique(pts, m, {0, 1, 2}, /*max_sweeps=*/64);
  DistanceMatrix d(pts, m);
  double value =
      EvaluateDiversity(DiversityProblem::kRemoteClique, d.Restrict(sol));
  // No single swap can improve a local optimum.
  std::set<size_t> in_set(sol.begin(), sol.end());
  for (size_t q = 0; q < pts.size(); ++q) {
    if (in_set.count(q)) continue;
    for (size_t a = 0; a < sol.size(); ++a) {
      std::vector<size_t> swapped = sol;
      swapped[a] = q;
      double v = EvaluateDiversity(DiversityProblem::kRemoteClique,
                                   d.Restrict(swapped));
      EXPECT_LE(v, value + 1e-6);
    }
  }
}

TEST(SolveSequentialGeneralizedTest, ExpandedSizeIsExactlyK) {
  EuclideanMetric m;
  GeneralizedCoreset gc;
  gc.Add(Point::Dense2(0, 0), 3);
  gc.Add(Point::Dense2(10, 0), 3);
  gc.Add(Point::Dense2(0, 10), 3);
  for (size_t k = 2; k <= 6; ++k) {
    GeneralizedCoreset sel = SolveSequentialGeneralized(
        DiversityProblem::kRemoteClique, gc, m, k);
    EXPECT_EQ(sel.ExpandedSize(), k);
    EXPECT_TRUE(sel.IsCoherentSubsetOf(gc));
  }
}

TEST(SolveSequentialGeneralizedTest, PrefersDistinctPointsOverReplicas) {
  EuclideanMetric m;
  GeneralizedCoreset gc;
  gc.Add(Point::Dense2(0, 0), 5);
  gc.Add(Point::Dense2(10, 0), 5);
  gc.Add(Point::Dense2(0, 10), 5);
  // k = 3: a replica contributes 0 distance, so all three distinct kernel
  // points must be picked.
  GeneralizedCoreset sel =
      SolveSequentialGeneralized(DiversityProblem::kRemoteClique, gc, m, 3);
  EXPECT_EQ(sel.size(), 3u);
  for (const WeightedPoint& e : sel.entries()) {
    EXPECT_EQ(e.multiplicity, 1u);
  }
}

}  // namespace
}  // namespace diverse
