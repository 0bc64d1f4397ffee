// Property tests for the paper's central claims: core-sets built by the
// GMM family (MapReduce side) and the SMM family (streaming side) preserve
// the k-diversity of the input up to a factor that shrinks as k' grows.
//
// These tests evaluate div_k exactly (brute force) on small inputs, i.e.
// they check Definition 1 (beta-core-set) directly: div_k(T) >= div_k(S)/beta.

#include <gtest/gtest.h>

#include "core/coreset.h"
#include "core/diversity.h"
#include "core/exact.h"
#include "core/generalized_coreset.h"
#include "core/metric.h"
#include "core/sequential.h"
#include "data/synthetic.h"
#include "mapreduce/partitioner.h"
#include "streaming/smm.h"

namespace diverse {
namespace {

constexpr size_t kN = 20;   // small enough for exact div_k
constexpr size_t kK = 4;

double ExactDivK(DiversityProblem p, const PointSet& pts, const Metric& m,
                 size_t k) {
  return ExactDiversityMaximization(p, pts, m, k).value;
}

// --- GMM / GMM-EXT (composable core-sets, Theorems 4 and 5) ---------------

// The GMM-family core-set of `pts` for `problem` (GMM-EXT with k-1
// delegates for the injective-proxy problems, plain GMM otherwise),
// gathered into points.
PointSet GmmFamilyCoreset(DiversityProblem problem, const PointSet& pts,
                          const Metric& m, size_t k_prime) {
  const Dataset data(pts);
  const std::vector<size_t> ids =
      RequiresInjectiveProxies(problem)
          ? GmmExtCoreset(data, m, k_prime, kK - 1)
          : GmmCoreset(data, m, k_prime);
  PointSet out;
  for (size_t id : ids) out.push_back(pts[id]);
  return out;
}

class GmmCoresetQualityTest
    : public ::testing::TestWithParam<DiversityProblem> {};

TEST_P(GmmCoresetQualityTest, CoresetPreservesDiversityWithinFactor) {
  DiversityProblem problem = GetParam();
  EuclideanMetric m;
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    PointSet pts = GenerateUniformCube(kN, 2, seed * 101);
    double opt = ExactDivK(problem, pts, m, kK);
    // k' = 2k already gives a strong core-set in 2 dimensions.
    PointSet coreset = GmmFamilyCoreset(problem, pts, m, 2 * kK);
    ASSERT_GE(coreset.size(), kK);
    ASSERT_LE(coreset.size(), kN);
    double core_opt = ExactDivK(problem, coreset, m, kK);
    // beta = 2 is far looser than the (1+eps) the theory gives for adequate
    // k'; it catches construction bugs without flaking on tiny instances.
    EXPECT_GE(core_opt * 2.0 + 1e-9, opt)
        << ProblemName(problem) << " seed " << seed;
    // A core-set is a subset: it can never exceed the optimum.
    EXPECT_LE(core_opt, opt + 1e-9);
  }
}

TEST_P(GmmCoresetQualityTest, QualityImprovesWithKPrime) {
  DiversityProblem problem = GetParam();
  EuclideanMetric m;
  double worst_small = 1.0, worst_large = 1.0;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    PointSet pts = GenerateUniformCube(kN, 2, seed * 211);
    double opt = ExactDivK(problem, pts, m, kK);
    if (opt <= 0.0) continue;
    auto ratio_for = [&](size_t k_prime) {
      PointSet coreset = GmmFamilyCoreset(problem, pts, m, k_prime);
      return ExactDivK(problem, coreset, m, kK) / opt;
    };
    worst_small = std::min(worst_small, ratio_for(kK));
    worst_large = std::min(worst_large, ratio_for(3 * kK));
  }
  EXPECT_GE(worst_large + 0.05, worst_small);
}

INSTANTIATE_TEST_SUITE_P(
    AllProblems, GmmCoresetQualityTest, ::testing::ValuesIn(kAllProblems),
    [](const ::testing::TestParamInfo<DiversityProblem>& info) {
      std::string name = ProblemName(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// --- Composability (Definition 2): union of per-partition core-sets -------

class ComposabilityTest : public ::testing::TestWithParam<PartitionStrategy> {
};

TEST_P(ComposabilityTest, UnionOfPartitionCoresetsIsACoreset) {
  EuclideanMetric m;
  for (DiversityProblem problem :
       {DiversityProblem::kRemoteEdge, DiversityProblem::kRemoteClique}) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      PointSet pts = GenerateUniformCube(kN, 2, seed * 307);
      double opt = ExactDivK(problem, pts, m, kK);
      auto parts = PartitionPoints(pts, 2, GetParam(), seed, &m);
      PointSet united;
      for (const PointSet& part : parts) {
        PointSet c = GmmFamilyCoreset(problem, part, m,
                                      std::min(2 * kK, part.size()));
        united.insert(united.end(), c.begin(), c.end());
      }
      ASSERT_GE(united.size(), kK);
      double core_opt = ExactDivK(problem, united, m, kK);
      EXPECT_GE(core_opt * 2.0 + 1e-9, opt)
          << ProblemName(problem) << " seed " << seed << " strategy "
          << PartitionStrategyName(GetParam());
      EXPECT_LE(core_opt, opt + 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, ComposabilityTest,
    ::testing::Values(PartitionStrategy::kChunked, PartitionStrategy::kRandom,
                      PartitionStrategy::kAdversarial),
    [](const ::testing::TestParamInfo<PartitionStrategy>& info) {
      return PartitionStrategyName(info.param);
    });

// --- SMM / SMM-EXT (streaming core-sets, Theorems 1 and 2) ----------------

class SmmCoresetQualityTest
    : public ::testing::TestWithParam<DiversityProblem> {};

TEST_P(SmmCoresetQualityTest, StreamCoresetPreservesDiversity) {
  DiversityProblem problem = GetParam();
  EuclideanMetric m;
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    PointSet pts = GenerateUniformCube(kN, 2, seed * 401);
    double opt = ExactDivK(problem, pts, m, kK);
    PointSet coreset;
    if (RequiresInjectiveProxies(problem)) {
      SmmExt smm(&m, kK, 2 * kK);
      for (const Point& p : pts) smm.Update(p);
      coreset = smm.Finalize();
    } else {
      Smm smm(&m, kK, 2 * kK);
      for (const Point& p : pts) smm.Update(p);
      coreset = smm.Finalize();
    }
    ASSERT_GE(coreset.size(), kK);
    double core_opt = ExactDivK(problem, coreset, m, kK);
    // The streaming construction is an 8-approximation doubling algorithm,
    // weaker than GMM; allow beta = 3 on these tiny adversarial inputs.
    EXPECT_GE(core_opt * 3.0 + 1e-9, opt)
        << ProblemName(problem) << " seed " << seed;
    EXPECT_LE(core_opt, opt + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllProblems, SmmCoresetQualityTest, ::testing::ValuesIn(kAllProblems),
    [](const ::testing::TestParamInfo<DiversityProblem>& info) {
      std::string name = ProblemName(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// --- Generalized core-sets (Section 6) -------------------------------------

TEST(GeneralizedCoresetQualityTest, GenDivKDominatesScaledOptimum) {
  // Lemma 8: gen-div_k(T) >= (1 - eps'/2alpha) div_k(S). We check the loose
  // version gen-div_k(T) * 2 >= div_k(S).
  EuclideanMetric m;
  for (DiversityProblem problem :
       {DiversityProblem::kRemoteClique, DiversityProblem::kRemoteStar,
        DiversityProblem::kRemoteBipartition, DiversityProblem::kRemoteTree}) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      PointSet pts = GenerateUniformCube(kN, 2, seed * 503);
      double opt = ExactDivK(problem, pts, m, kK);
      GeneralizedCoreset gc = GmmGenCoreset(Dataset(pts), m, kK, 2 * kK);
      // Evaluate gen-div_k by brute force over the capped expansion.
      auto expansion = gc.ExpandCapped(kK);
      DistanceMatrix d = ExpansionDistanceMatrix(expansion, m);
      double gen_div_k =
          ExactDiversityMaximization(problem, d, kK).value;
      EXPECT_GE(gen_div_k * 2.0 + 1e-9, opt)
          << ProblemName(problem) << " seed " << seed;
    }
  }
}

}  // namespace
}  // namespace diverse
