#include "core/generalized_coreset.h"

#include <gtest/gtest.h>

#include "core/diversity.h"
#include "core/metric.h"
#include "core/sequential.h"
#include "data/synthetic.h"

namespace diverse {
namespace {

TEST(GeneralizedCoresetTest, SizesAndExpansion) {
  GeneralizedCoreset gc;
  gc.Add(Point::Dense2(0, 0), 3);
  gc.Add(Point::Dense2(1, 0), 1);
  EXPECT_EQ(gc.size(), 2u);
  EXPECT_EQ(gc.ExpandedSize(), 4u);
  auto e = gc.Expand();
  ASSERT_EQ(e.points.size(), 4u);
  EXPECT_EQ(e.kernel_id[0], 0u);
  EXPECT_EQ(e.kernel_id[2], 0u);
  EXPECT_EQ(e.kernel_id[3], 1u);
}

TEST(GeneralizedCoresetTest, CappedExpansion) {
  GeneralizedCoreset gc;
  gc.Add(Point::Dense2(0, 0), 5);
  gc.Add(Point::Dense2(1, 0), 2);
  auto e = gc.ExpandCapped(3);
  EXPECT_EQ(e.points.size(), 5u);  // min(5,3) + min(2,3)
}

TEST(GeneralizedCoresetTest, CoherentSubsetRelation) {
  GeneralizedCoreset big;
  big.Add(Point::Dense2(0, 0), 3);
  big.Add(Point::Dense2(1, 0), 2);
  GeneralizedCoreset small;
  small.Add(Point::Dense2(0, 0), 2);
  EXPECT_TRUE(small.IsCoherentSubsetOf(big));
  EXPECT_FALSE(big.IsCoherentSubsetOf(small));
  GeneralizedCoreset over;
  over.Add(Point::Dense2(1, 0), 3);  // multiplicity exceeds big's 2
  EXPECT_FALSE(over.IsCoherentSubsetOf(big));
}

TEST(GeneralizedCoresetTest, MergeConcatenates) {
  GeneralizedCoreset a, b;
  a.Add(Point::Dense2(0, 0), 1);
  b.Add(Point::Dense2(1, 0), 2);
  std::vector<GeneralizedCoreset> parts = {a, b};
  GeneralizedCoreset merged = GeneralizedCoreset::Merge(parts);
  EXPECT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged.ExpandedSize(), 3u);
}

TEST(GeneralizedCoresetTest, ExpansionMatrixReplicasAtZero) {
  EuclideanMetric m;
  GeneralizedCoreset gc;
  gc.Add(Point::Dense2(0, 0), 2);
  gc.Add(Point::Dense2(3, 4), 1);
  auto e = gc.Expand();
  DistanceMatrix d = ExpansionDistanceMatrix(e, m);
  EXPECT_DOUBLE_EQ(d.at(0, 1), 0.0);  // two replicas of the first entry
  EXPECT_DOUBLE_EQ(d.at(0, 2), 5.0);
}

TEST(GmmGenCoresetTest, MatchesGmmExtCounts) {
  EuclideanMetric m;
  PointSet pts = GenerateUniformCube(120, 2, /*seed=*/3);
  size_t k = 4, k_prime = 10;
  GeneralizedCoreset gc = GmmGenCoreset(Dataset(pts), m, k, k_prime);
  EXPECT_EQ(gc.size(), k_prime);
  // Every multiplicity in [1, k]; total expanded size at most k * k'.
  for (const WeightedPoint& e : gc.entries()) {
    EXPECT_GE(e.multiplicity, 1u);
    EXPECT_LE(e.multiplicity, k);
  }
  EXPECT_LE(gc.ExpandedSize(), k * k_prime);
  EXPECT_GE(gc.ExpandedSize(), k_prime);
}

TEST(GmmGenCoresetTest, RangeOutputMatchesKernelRange) {
  EuclideanMetric m;
  PointSet pts = GenerateUniformCube(100, 2, /*seed=*/4);
  double range = -1.0;
  GeneralizedCoreset gc = GmmGenCoreset(Dataset(pts), m, 3, 8, &range);
  ASSERT_GE(range, 0.0);
  // Every input point is within `range` of some kernel point.
  for (const Point& p : pts) {
    double dist = 1e100;
    for (const WeightedPoint& e : gc.entries()) {
      dist = std::min(dist, m.Distance(p, e.point));
    }
    EXPECT_LE(dist, range + 1e-12);
  }
}

TEST(InstantiateTest, RecoversDistinctDelegates) {
  EuclideanMetric m;
  PointSet pts = GenerateUniformCube(60, 2, /*seed=*/5);
  const Dataset data(pts);
  double range = 0.0;
  GeneralizedCoreset gc = GmmGenCoreset(data, m, 3, 6, &range);
  // Select a coherent subset of expanded size 3 by solving remote-clique.
  GeneralizedCoreset sel =
      SolveSequentialGeneralized(DiversityProblem::kRemoteClique, gc, m, 3);
  auto inst = Instantiate(sel, data, m, range);
  ASSERT_TRUE(inst.has_value());
  EXPECT_EQ(inst->size(), 3u);
  // Distinctness.
  for (size_t i = 0; i < inst->size(); ++i) {
    for (size_t j = i + 1; j < inst->size(); ++j) {
      EXPECT_FALSE(pts[(*inst)[i]] == pts[(*inst)[j]]);
    }
  }
}

TEST(InstantiateTest, FailsWhenPointsCannotSupply) {
  EuclideanMetric m;
  GeneralizedCoreset gc;
  gc.Add(Point::Dense2(0, 0), 3);
  PointSet pts = {Point::Dense2(0, 0), Point::Dense2(0.01f, 0)};
  // Only 2 points within any radius of the kernel point; need 3.
  EXPECT_FALSE(Instantiate(gc, Dataset(pts), m, 0.5).has_value());
}

// Lemma 7: div(I(T)) >= gen-div(T) - f(k) * 2 * delta.
TEST(InstantiateTest, Lemma7Bound) {
  EuclideanMetric m;
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    PointSet pts = GenerateUniformCube(80, 2, seed);
    const Dataset data(pts);
    double range = 0.0;
    size_t k = 4;
    GeneralizedCoreset gc = GmmGenCoreset(data, m, k, 8, &range);
    for (DiversityProblem p :
         {DiversityProblem::kRemoteClique, DiversityProblem::kRemoteStar,
          DiversityProblem::kRemoteBipartition,
          DiversityProblem::kRemoteTree}) {
      GeneralizedCoreset sel = SolveSequentialGeneralized(p, gc, m, k);
      auto inst = Instantiate(sel, data, m, range);
      ASSERT_TRUE(inst.has_value()) << ProblemName(p) << " seed " << seed;
      PointSet delegates;
      for (size_t id : *inst) delegates.push_back(pts[id]);
      double gen_div = EvaluateGeneralizedDiversity(p, sel, m);
      double div = EvaluateDiversity(p, delegates, m);
      double bound = gen_div - DiversityTermCount(p, k) * 2.0 * range;
      EXPECT_GE(div + 1e-9, bound) << ProblemName(p) << " seed " << seed;
    }
  }
}

TEST(GeneralizedCoresetDeathTest, ZeroMultiplicityRejected) {
  GeneralizedCoreset gc;
  EXPECT_DEATH(gc.Add(Point::Dense2(0, 0), 0), "CHECK failed");
}

}  // namespace
}  // namespace diverse
