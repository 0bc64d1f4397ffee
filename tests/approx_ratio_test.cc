// Exact-oracle approximation-ratio suite: on seeded tiny instances
// (n <= 14, every metric, dense and sparse layouts), each backend's
// returned objective must sit within the paper's proven approximation
// factor of the brute-force optimum from core/exact.cc — for ALL SIX
// DiversityProblem variants, with mixed-precision screening on and off,
// at 1/2/8 threads. Screening is bit-identical by contract and thread
// counts must not change deterministic selections, so the assertions are
// the same in every configuration; running the whole grid is what pins
// the guarantees to the oracle rather than to a lucky configuration.
//
// Factors: the sequential algorithms carry SequentialAlpha(p) (Table 1:
// 2/2/2/3/4/3). The core-set backends (streaming SMM, MapReduce) are
// (alpha + eps)-approximate with eps shrinking in k'/k; on instances this
// small a factor-2 envelope for the core-set loss is conservative (the
// same envelope cross_backend_test uses). The local-search refinement of
// remote-clique starts from the matching's 2-approximation and only ever
// improves the objective, so it inherits the factor 2.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/solve.h"
#include "comm/socket_engine.h"
#include "core/cover_tree.h"
#include "core/diversity.h"
#include "core/exact.h"
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

constexpr size_t kN = 14;
constexpr size_t kK = 3;
constexpr size_t kKPrime = 6;

// Dense points with a zeroed-coordinate mix so the support-based Jaccard
// distance is nontrivial on the dense layout too.
PointSet TinyDense(uint64_t seed) {
  Rng rng(seed);
  PointSet pts;
  for (size_t i = 0; i < kN; ++i) {
    std::vector<float> v(3);
    for (float& x : v) {
      x = rng.NextDouble() < 0.3 ? 0.0f
                                 : static_cast<float>(rng.NextDouble() + 0.1);
    }
    pts.push_back(Point::Dense(std::move(v)));
  }
  return pts;
}

PointSet TinySparse(uint64_t seed) {
  SparseTextOptions opts;
  opts.n = kN;
  opts.vocab_size = 30;
  opts.min_terms = 3;
  opts.max_terms = 8;
  opts.seed = seed;
  return GenerateSparseTextDataset(opts);
}

std::vector<std::unique_ptr<Metric>> AllMetrics() {
  std::vector<std::unique_ptr<Metric>> metrics;
  metrics.push_back(std::make_unique<EuclideanMetric>());
  metrics.push_back(std::make_unique<ManhattanMetric>());
  metrics.push_back(std::make_unique<CosineMetric>());
  metrics.push_back(std::make_unique<JaccardMetric>());
  return metrics;
}

struct NamedLayout {
  std::string name;
  PointSet pts;
};

std::vector<NamedLayout> Layouts() {
  std::vector<NamedLayout> layouts;
  layouts.push_back({"dense", TinyDense(401)});
  layouts.push_back({"sparse", TinySparse(402)});
  return layouts;
}

class ApproxRatioThreads : public ::testing::TestWithParam<size_t> {};

INSTANTIATE_TEST_SUITE_P(Threads, ApproxRatioThreads,
                         ::testing::Values(1, 2, 8));

void ExpectWithinFactor(double achieved, double opt, double factor,
                        const std::string& ctx) {
  // A valid k-subset can never beat the optimum, and an alpha-approximate
  // algorithm must reach opt / alpha.
  EXPECT_LE(achieved, opt + 1e-9) << ctx;
  EXPECT_GE(achieved * factor + 1e-9, opt) << ctx;
}

TEST_P(ApproxRatioThreads, AllBackendsWithinProvenFactorOfOracle) {
  SetGlobalThreadPoolSize(GetParam());
  // The indexed dimension of the grid forces the metric index on, so it
  // actually exercises the cover-tree traversals on these tiny instances
  // (the real profitability probe would gate them off as too small); the
  // indexing-off dimension pins the flat sweeps. Indexing is bit-identical
  // by contract, so the assertions are unchanged.
  for (const NamedLayout& layout : Layouts()) {
    for (const auto& metric : AllMetrics()) {
      for (DiversityProblem p : kAllProblems) {
        double opt =
            ExactDiversityMaximization(p, layout.pts, *metric, kK).value;
        double alpha = SequentialAlpha(p);
        for (bool screening : {true, false}) {
        for (bool indexing : {true, false}) {
          const auto tiered = MakeMetricByName(
              metric->Name(),
              {.screening = screening,
               .indexing = indexing ? IndexPolicy::kForce : IndexPolicy::kOff});
          std::string ctx = layout.name + "/" + metric->Name() + "/" +
                            ProblemName(p) +
                            (screening ? "/screened" : "/exact") +
                            (indexing ? "/indexed" : "/flat") +
                            "/threads=" + std::to_string(GetParam());
          // Sequential GMM / matching (per problem family).
          {
            SolveOptions o;
            o.problem = p;
            o.backend = Backend::kSequential;
            o.k = kK;
            StatusOr<SolveResult> r = TrySolve(layout.pts, *tiered, o);
            ASSERT_TRUE(r.ok()) << r.status().ToString();
            ASSERT_EQ(r->solution.size(), kK) << ctx;
            ExpectWithinFactor(r->diversity, opt, alpha, ctx + "/sequential");
          }
          // Streaming SMM(-EXT) core-set pipeline.
          {
            SolveOptions o;
            o.problem = p;
            o.backend = Backend::kStreaming;
            o.k = kK;
            o.k_prime = kKPrime;
            StatusOr<SolveResult> r = TrySolve(layout.pts, *tiered, o);
            ASSERT_TRUE(r.ok()) << r.status().ToString();
            ASSERT_EQ(r->solution.size(), kK) << ctx;
            ExpectWithinFactor(r->diversity, opt, 2.0 * alpha,
                               ctx + "/streaming");
          }
          // MapReduce core-set pipeline.
          {
            SolveOptions o;
            o.problem = p;
            o.backend = Backend::kMapReduce;
            o.k = kK;
            o.k_prime = kKPrime;
            o.num_partitions = 2;
            StatusOr<SolveResult> r = TrySolve(layout.pts, *tiered, o);
            ASSERT_TRUE(r.ok()) << r.status().ToString();
            ASSERT_EQ(r->solution.size(), kK) << ctx;
            ExpectWithinFactor(r->diversity, opt, 2.0 * alpha,
                               ctx + "/mapreduce");
          }
          // Local-search refinement (remote-clique only): starts from the
          // greedy matching and monotonically improves the clique sum.
          if (p == DiversityProblem::kRemoteClique) {
            Dataset data(layout.pts);
            std::vector<size_t> initial = SolveSequential(p, data, *tiered,
                                                          kK);
            double matching_value =
                EvaluateDiversitySubset(p, data, initial, *tiered);
            std::vector<size_t> improved = LocalSearchRemoteClique(
                layout.pts, *tiered, initial, /*max_sweeps=*/8);
            double ls_value =
                EvaluateDiversitySubset(p, data, improved, *tiered);
            EXPECT_GE(ls_value + 1e-9, matching_value)
                << ctx << "/local-search";
            ExpectWithinFactor(ls_value, opt, alpha, ctx + "/local-search");
          }
        }
        }
      }
    }
  }
  SetGlobalThreadPoolSize(1);
}

// Certified graceful degradation: when a round-1 partition permanently
// fails, the completed run's DegradedResult claims its solution is within
// `approx_factor` of the optimum over the *surviving* points. Pin that
// certificate to the brute-force oracle: rebuild the surviving sub-instance
// from the deterministic partitioning and enumerate its optimum.
TEST(ApproxRatioTest, DegradedRunCertifiedAgainstSurvivingOracle) {
  constexpr uint64_t kSeed = 5;
  // Kill partition 0 on every attempt (default retry budget: 3 attempts).
  FaultInjector faults;
  for (size_t attempt = 0; attempt < 3; ++attempt) {
    faults.Add({"coreset", 0, attempt, FaultKind::kCrash, 0});
  }
  for (const NamedLayout& layout : Layouts()) {
    for (const auto& metric : AllMetrics()) {
      for (DiversityProblem p : kAllProblems) {
        MrOptions o;
        o.k = kK;
        o.k_prime = kKPrime;
        o.num_partitions = 2;
        o.num_workers = 2;
        o.seed = kSeed;
        o.faults = &faults;
        MapReduceDiversity mr(metric.get(), p, o);
        StatusOr<MrResult> r = mr.TryRun(Dataset(layout.pts));
        std::string ctx = layout.name + "/" + metric->Name() + "/" +
                          ProblemName(p) + "/degraded";
        ASSERT_TRUE(r.ok()) << ctx << ": " << r.status().ToString();
        ASSERT_TRUE(r->degraded.has_value()) << ctx;
        const DegradedResult& d = *r->degraded;
        ASSERT_EQ(d.failed_partitions, std::vector<size_t>{0}) << ctx;
        EXPECT_EQ(d.approx_factor, 2.0 * SequentialAlpha(p)) << ctx;
        EXPECT_EQ(d.surviving_points + layout.pts.size() / 2,
                  layout.pts.size())
            << ctx;
        // Rebuild the surviving sub-instance: partitioning is a pure
        // function of (input, parts, strategy, seed), so the survivors are
        // exactly the non-failed parts of the same split.
        std::vector<PointSet> parts =
            PartitionPoints(layout.pts, o.num_partitions, o.partition, kSeed,
                            metric.get());
        const PointSet& survivors = parts[1];
        ASSERT_EQ(survivors.size(), d.surviving_points) << ctx;
        double opt =
            ExactDiversityMaximization(p, survivors, *metric, kK).value;
        ASSERT_EQ(r->solution.size(), kK) << ctx;
        ExpectWithinFactor(r->diversity, opt, d.approx_factor, ctx);
      }
    }
  }
}

// The socket backend carries the same guarantees as the in-process
// simulator: fault-free runs sit within the proven factor of the oracle,
// and a partition lost to a *transport* failure (connection dropped on
// every attempt) degrades into the same certificate the in-process crash
// path issues — pinned to the brute-force optimum of the surviving
// sub-instance, exactly as above.
TEST(ApproxRatioTest, SocketBackendCertifiedAgainstOracle) {
  constexpr uint64_t kSeed = 5;
  FaultInjector faults;
  for (size_t attempt = 0; attempt < 3; ++attempt) {
    faults.Add({"coreset", 0, attempt, FaultKind::kConnDrop, 0});
  }
  const PointSet pts = TinyDense(401);
  for (const auto& metric : AllMetrics()) {
    for (DiversityProblem p : kAllProblems) {
      SocketEngineOptions so;
      so.num_workers = 2;
      so.metric = metric->Name();
      so.problem = p;
      SocketEngine engine(so);
      ASSERT_TRUE(engine.Healthy().ok()) << engine.Healthy().ToString();
      MrOptions o;
      o.k = kK;
      o.k_prime = kKPrime;
      o.num_partitions = 2;
      o.num_workers = 2;
      o.seed = kSeed;
      o.engine = &engine;
      const std::string ctx =
          std::string(metric->Name()) + "/" + ProblemName(p) + "/socket";

      // Fault-free distributed run: within the proven factor.
      MapReduceDiversity mr(metric.get(), p, o);
      StatusOr<MrResult> clean = mr.TryRun(Dataset(pts));
      ASSERT_TRUE(clean.ok()) << ctx << ": " << clean.status().ToString();
      ASSERT_FALSE(clean->degraded.has_value()) << ctx;
      double opt_all = ExactDiversityMaximization(p, pts, *metric, kK).value;
      ExpectWithinFactor(clean->diversity, opt_all, 2.0 * SequentialAlpha(p),
                         ctx + "/clean");

      // Partition 0's link drops on every attempt: certified degradation.
      MrOptions fo = o;
      fo.faults = &faults;
      MapReduceDiversity faulty(metric.get(), p, fo);
      StatusOr<MrResult> r = faulty.TryRun(Dataset(pts));
      ASSERT_TRUE(r.ok()) << ctx << ": " << r.status().ToString();
      ASSERT_TRUE(r->degraded.has_value()) << ctx;
      const DegradedResult& d = *r->degraded;
      ASSERT_EQ(d.failed_partitions, std::vector<size_t>{0}) << ctx;
      EXPECT_EQ(d.approx_factor, 2.0 * SequentialAlpha(p)) << ctx;
      std::vector<PointSet> parts = PartitionPoints(
          pts, o.num_partitions, o.partition, kSeed, metric.get());
      const PointSet& survivors = parts[1];
      ASSERT_EQ(survivors.size(), d.surviving_points) << ctx;
      double opt =
          ExactDiversityMaximization(p, survivors, *metric, kK).value;
      ASSERT_EQ(r->solution.size(), kK) << ctx;
      ExpectWithinFactor(r->diversity, opt, d.approx_factor, ctx);
    }
  }
}

// The oracle itself honors the structural lower bound used throughout the
// paper's proofs: div_k under any problem evaluated at the GMM solution is
// at least opt / alpha (this is what the per-backend assertions rest on,
// so pin it once directly against the enumerator).
TEST(ApproxRatioTest, OracleDominatesEveryReportedSolution) {
  EuclideanMetric metric;
  PointSet pts = TinyDense(77);
  for (DiversityProblem p : kAllProblems) {
    ExactResult exact = ExactDiversityMaximization(p, pts, metric, kK);
    ASSERT_EQ(exact.best_subset.size(), kK);
    // Re-evaluating the reported optimal subset reproduces the reported
    // value, and every sequential solution is dominated by it.
    Dataset data(pts);
    EXPECT_NEAR(EvaluateDiversitySubset(p, data, exact.best_subset, metric),
                exact.value, 1e-12)
        << ProblemName(p);
    std::vector<size_t> seq = SolveSequential(p, data, metric, kK);
    EXPECT_LE(EvaluateDiversitySubset(p, data, seq, metric),
              exact.value + 1e-9)
        << ProblemName(p);
  }
}

}  // namespace
}  // namespace diverse
