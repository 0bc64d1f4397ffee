// Metamorphic invariance suite: properties that must hold across input
// transformations whose effect on the answer is known a priori.
//
//   * Point-order permutation. The deterministic sequential algorithms are
//     equivariant: permuting the input (and mapping GMM's start index
//     through the permutation) permutes the selection, so the selected
//     POINT SET — and hence the objective — is unchanged. Holds whenever
//     pairwise distances are tie-free, so the continuous metrics are
//     tested on random data (Jaccard's discrete value set ties by design
//     and resolves ties by index order, which permutation changes).
//     CountingMetric exact-path evaluation counts are also permutation-
//     invariant (they are functions of n and k alone).
//   * Uniform scaling by a power of two. Multiplying every coordinate by
//     2.0f scales every Euclidean/L1 distance EXACTLY (IEEE arithmetic is
//     scale-invariant under powers of two away from the subnormal/overflow
//     range), so every comparison in every backend resolves identically
//     and the returned objective is exactly 2x, bit for bit. The cosine
//     and Jaccard objectives are exactly invariant (angles and supports do
//     not move).
//   * Duplicating a point. A duplicate adds only zero-distance pairs, so
//     the exact optimum is unchanged and no backend can report a better
//     objective than the original optimum.
//
// The scaling and duplication properties run across sequential, streaming
// SMM, and MapReduce backends (permutation: sequential only — the streaming
// and partitioned backends are order-sensitive by construction).

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/solve.h"
#include "core/dataset.h"
#include "core/diversity.h"
#include "core/exact.h"
#include "core/gmm.h"
#include "core/metric.h"
#include "core/point.h"
#include "core/screen.h"
#include "core/sequential.h"
#include "data/sparse_text.h"
#include "data/synthetic.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace diverse {
namespace {

std::vector<size_t> RandomPermutation(size_t n, uint64_t seed) {
  std::vector<size_t> perm(n);
  for (size_t i = 0; i < n; ++i) perm[i] = i;
  Rng rng(seed);
  for (size_t i = n; i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.NextBounded(i)]);
  }
  return perm;
}

// perm[new_index] = old_index.
PointSet Permute(const PointSet& pts, const std::vector<size_t>& perm) {
  PointSet out;
  out.reserve(pts.size());
  for (size_t old_index : perm) out.push_back(pts[old_index]);
  return out;
}

// Maps a selection over the permuted order back to original indices and
// sorts, so two equivariant runs compare as sets.
std::vector<size_t> MappedSorted(const std::vector<size_t>& selected,
                                 const std::vector<size_t>& perm) {
  std::vector<size_t> out;
  out.reserve(selected.size());
  for (size_t idx : selected) out.push_back(perm[idx]);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<size_t> Sorted(std::vector<size_t> v) {
  std::sort(v.begin(), v.end());
  return v;
}

Point Scaled(const Point& p, float factor) {
  if (p.is_sparse()) {
    std::vector<float> values = p.sparse_values();
    for (float& v : values) v *= factor;
    std::vector<uint32_t> indices = p.sparse_indices();
    return Point::Sparse(std::move(indices), std::move(values),
                         static_cast<uint32_t>(p.dim()));
  }
  std::vector<float> values = p.dense_values();
  for (float& v : values) v *= factor;
  return Point::Dense(std::move(values));
}

PointSet ScaledSet(const PointSet& pts, float factor) {
  PointSet out;
  out.reserve(pts.size());
  for (const Point& p : pts) out.push_back(Scaled(p, factor));
  return out;
}

PointSet DensePoints(size_t n, uint64_t seed) {
  return GenerateUniformCube(n, 3, seed);
}

PointSet SparsePoints(size_t n, uint64_t seed) {
  SparseTextOptions topts;
  topts.n = n;
  topts.vocab_size = 200;
  topts.min_terms = 5;
  topts.max_terms = 20;
  topts.seed = seed;
  return GenerateSparseTextDataset(topts);
}

// All properties hold at any thread pool size (results are deterministic
// by the batch-kernel and screening contracts), so the whole suite runs at
// 1/2/8 threads.
class MetamorphicThreads : public ::testing::TestWithParam<size_t> {
 protected:
  void TearDown() override { SetGlobalThreadPoolSize(1); }
};

INSTANTIATE_TEST_SUITE_P(Threads, MetamorphicThreads,
                         ::testing::Values(1, 2, 8));

// --- Permutation ----------------------------------------------------------

// Sparse vectors with CONTINUOUS random values: the text generator's
// integer term counts make L1 / Euclidean distances collide exactly all
// over a 60-point instance, and the permutation property needs tie-free
// distances.
PointSet ContinuousSparsePoints(size_t n, uint64_t seed) {
  Rng rng(seed);
  PointSet pts;
  constexpr uint32_t kDim = 200;
  for (size_t i = 0; i < n; ++i) {
    std::vector<uint32_t> indices;
    std::vector<float> values;
    for (uint32_t j = 0; j < kDim; ++j) {
      if (rng.NextDouble() < 0.06) {
        indices.push_back(j);
        values.push_back(static_cast<float>(rng.NextDouble() + 0.1));
      }
    }
    if (indices.empty()) {
      indices.push_back(i % kDim);
      values.push_back(1.0f);
    }
    pts.push_back(Point::Sparse(std::move(indices), std::move(values), kDim));
  }
  return pts;
}

TEST_P(MetamorphicThreads, PermutationLeavesSequentialSelectionsUnchanged) {
  SetGlobalThreadPoolSize(GetParam());
  PointSet dense = DensePoints(60, /*seed=*/501);
  PointSet sparse = ContinuousSparsePoints(60, /*seed=*/502);

  // The indexed dimension turns greedy matching's cluster-pair bound on;
  // equivariance must survive because the bounded scan selects exactly
  // what the exhaustive scan does.
  for (bool screening : {true, false}) {
  for (bool indexing : {true, false}) {
    const KernelPolicy policy{.screening = screening, .indexing = indexing};
    std::vector<std::unique_ptr<Metric>> metrics;
    metrics.push_back(std::make_unique<EuclideanMetric>(policy));
    metrics.push_back(std::make_unique<ManhattanMetric>(policy));
    metrics.push_back(std::make_unique<CosineMetric>(policy));
    for (const PointSet* pts : {&dense, &sparse}) {
      bool sparse_layout = pts == &sparse;
      std::vector<size_t> perm = RandomPermutation(pts->size(), 503);
      PointSet permuted = Permute(*pts, perm);
      Dataset data(*pts);
      Dataset pdata(permuted);
      for (const auto& metric : metrics) {
        // Angular distance on sparse text ties EXACTLY at pi/2 for every
        // disjoint-support pair, and ties resolve by index order — which a
        // permutation changes. Equivariance needs tie-free distances, so
        // cosine runs on the dense layout only.
        if (sparse_layout && metric->Name() == "cosine") continue;
        std::string ctx = metric->Name() +
                          (screening ? "/screened" : "/exact") +
                          (indexing ? "/indexed" : "/flat");
        // GMM: map the start index through the permutation, then the
        // selected point set must map back exactly (tie-free distances).
        size_t pfirst = 0;
        while (perm[pfirst] != 0) ++pfirst;
        GmmResult base = Gmm(data, *metric, 8, /*first=*/0);
        GmmResult prun = Gmm(pdata, *metric, 8, pfirst);
        EXPECT_EQ(Sorted(base.selected), MappedSorted(prun.selected, perm))
            << ctx << "/gmm";
        EXPECT_EQ(base.range, prun.range) << ctx << "/gmm-range";
        // Matching: no start index; the heaviest-pair order is a pure
        // function of the (identical) distance multiset.
        std::vector<size_t> base_match =
            GreedyMatchingOnDataset(data, *metric, 8);
        std::vector<size_t> perm_match =
            GreedyMatchingOnDataset(pdata, *metric, 8);
        EXPECT_EQ(Sorted(base_match), MappedSorted(perm_match, perm))
            << ctx << "/matching";
        // The selected sets coincide, so the objectives match exactly when
        // evaluated over the same (original) dataset rows.
        EXPECT_EQ(EvaluateDiversitySubset(DiversityProblem::kRemoteClique,
                                          data, Sorted(base_match), *metric),
                  EvaluateDiversitySubset(DiversityProblem::kRemoteClique,
                                          data,
                                          MappedSorted(perm_match, perm),
                                          *metric))
            << ctx << "/objective";
      }
    }
  }
  }
}

TEST_P(MetamorphicThreads, PermutationKeepsExactEvalCountsInvariant) {
  SetGlobalThreadPoolSize(GetParam());
  PointSet pts = DensePoints(80, /*seed=*/504);
  std::vector<size_t> perm = RandomPermutation(pts.size(), 505);
  PointSet permuted = Permute(pts, perm);
  EuclideanMetric base({.screening = false});
  // The exact path's evaluation count depends on the trajectory (GMM's
  // skip reads the distances to the centers chosen so far), not on the
  // input order: with the start row mapped through the permutation, both
  // runs pick the same points and pay the same evaluations.
  size_t pfirst = 0;
  while (perm[pfirst] != 0) ++pfirst;
  CountingMetric c1(&base);
  Gmm(Dataset(pts), c1, 10, /*first=*/0);
  CountingMetric c2(&base);
  Gmm(Dataset(permuted), c2, 10, pfirst);
  EXPECT_EQ(c1.exact_evals(), c2.exact_evals());
  EXPECT_EQ(c1.screened_evals(), 0u);
  EXPECT_EQ(c2.screened_evals(), 0u);
}

// --- Uniform scaling ------------------------------------------------------

TEST_P(MetamorphicThreads, PowerOfTwoScalingScalesObjectivesExactly) {
  SetGlobalThreadPoolSize(GetParam());
  PointSet dense = DensePoints(300, /*seed=*/511);
  PointSet sparse = SparsePoints(300, /*seed=*/512);
  constexpr float kFactor = 2.0f;

  struct MetricCase {
    std::unique_ptr<Metric> metric;
    double objective_factor;  // 2.0 for translation-free norms, 1.0 angular
  };
  std::vector<MetricCase> cases;
  cases.push_back({std::make_unique<EuclideanMetric>(), 2.0});
  cases.push_back({std::make_unique<ManhattanMetric>(), 2.0});
  cases.push_back({std::make_unique<CosineMetric>(), 1.0});
  cases.push_back({std::make_unique<JaccardMetric>(), 1.0});

  for (const PointSet* pts : {&dense, &sparse}) {
    PointSet scaled = ScaledSet(*pts, kFactor);
    for (const MetricCase& mc : cases) {
      for (DiversityProblem p :
           {DiversityProblem::kRemoteEdge, DiversityProblem::kRemoteClique,
            DiversityProblem::kRemoteTree}) {
        for (Backend b : {Backend::kSequential, Backend::kStreaming,
                          Backend::kMapReduce}) {
          SolveOptions o;
          o.problem = p;
          o.backend = b;
          o.k = 6;
          o.k_prime = 18;
          o.num_partitions = 3;
          StatusOr<SolveResult> base = TrySolve(*pts, *mc.metric, o);
          ASSERT_TRUE(base.ok()) << base.status().ToString();
          StatusOr<SolveResult> big = TrySolve(scaled, *mc.metric, o);
          ASSERT_TRUE(big.ok()) << big.status().ToString();
          EXPECT_EQ(big->diversity, mc.objective_factor * base->diversity)
              << mc.metric->Name() << "/" << ProblemName(p) << "/"
              << BackendName(b);
        }
      }
    }
  }
}

// --- Duplication ----------------------------------------------------------
//
// What duplication provably does to div_k depends on the objective:
//   * remote-edge: a subset using both copies contains a zero-distance
//     pair (value 0), and every other subset existed before — so the
//     optimum is exactly invariant and "duplicating never improves" holds
//     unconditionally.
//   * sum-type objectives (clique/star/bipartition/tree/cycle): selecting
//     BOTH copies trades one zero pair for doubled far pairs
//     (2 d(p,x) + 2 d(p,y) + d(x,y) can beat any distinct quadruple), so
//     the optimum may legitimately GROW — the provable direction is
//     monotonicity (opt_dup >= opt; the subset family only grew) plus
//     validity (no backend beats the duplicated-input oracle).
TEST_P(MetamorphicThreads, DuplicatingAPointNeverImprovesTheObjective) {
  SetGlobalThreadPoolSize(GetParam());
  PointSet dense = DensePoints(12, /*seed=*/521);
  PointSet sparse = SparsePoints(12, /*seed=*/522);
  std::vector<std::unique_ptr<Metric>> metrics;
  metrics.push_back(std::make_unique<EuclideanMetric>());
  metrics.push_back(std::make_unique<ManhattanMetric>());
  metrics.push_back(std::make_unique<CosineMetric>());
  metrics.push_back(std::make_unique<JaccardMetric>());

  for (const PointSet* pts : {&dense, &sparse}) {
    for (const auto& metric : metrics) {
      for (DiversityProblem p : kAllProblems) {
        double opt = ExactDiversityMaximization(p, *pts, *metric, 4).value;
        for (size_t dup : {size_t{0}, pts->size() / 2}) {
          PointSet with_dup = *pts;
          with_dup.push_back((*pts)[dup]);
          double opt_dup =
              ExactDiversityMaximization(p, with_dup, *metric, 4).value;
          if (p == DiversityProblem::kRemoteEdge) {
            EXPECT_NEAR(opt_dup, opt, 1e-9)
                << metric->Name() << "/" << ProblemName(p) << "/dup=" << dup;
          } else {
            EXPECT_GE(opt_dup, opt - 1e-9)
                << metric->Name() << "/" << ProblemName(p) << "/dup=" << dup;
          }
          // No backend beats the duplicated-input oracle; for remote-edge
          // that oracle equals the original one, so duplication can never
          // help any backend there.
          double cap = p == DiversityProblem::kRemoteEdge ? opt : opt_dup;
          for (Backend b : {Backend::kSequential, Backend::kStreaming,
                            Backend::kMapReduce}) {
            SolveOptions o;
            o.problem = p;
            o.backend = b;
            o.k = 4;
            o.k_prime = 8;
            o.num_partitions = 2;
            StatusOr<SolveResult> r = TrySolve(with_dup, *metric, o);
            ASSERT_TRUE(r.ok()) << r.status().ToString();
            EXPECT_LE(r->diversity, cap + 1e-9)
                << metric->Name() << "/" << ProblemName(p) << "/"
                << BackendName(b);
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace diverse
