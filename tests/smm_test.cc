#include "streaming/smm.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/dataset.h"
#include "core/metric.h"
#include "data/sparse_text.h"
#include "data/synthetic.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace diverse {
namespace {

using internal_smm::SmmEngine;

PointSet StreamOf(size_t n, uint64_t seed) {
  return GenerateUniformCube(n, 2, seed);
}

TEST(SmmTest, ShortStreamKeepsEverything) {
  EuclideanMetric m;
  Smm smm(&m, 3, 8);
  PointSet pts = StreamOf(5, 1);  // fewer than k'+1 = 9
  for (const Point& p : pts) smm.Update(p);
  PointSet coreset = smm.Finalize();
  EXPECT_EQ(coreset.size(), 5u);
}

TEST(SmmTest, CoresetHasAtLeastKPoints) {
  EuclideanMetric m;
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Smm smm(&m, 8, 12);
    for (const Point& p : StreamOf(500, seed)) smm.Update(p);
    EXPECT_GE(smm.Finalize().size(), 8u) << "seed " << seed;
  }
}

TEST(SmmTest, MemoryBoundedByKPrimePlusOne) {
  EuclideanMetric m;
  size_t k_prime = 16;
  Smm smm(&m, 4, k_prime);
  size_t peak_centers = 0;
  for (const Point& p : StreamOf(2000, 3)) {
    smm.Update(p);
    peak_centers = std::max(peak_centers, smm.engine().Centers().size());
  }
  EXPECT_LE(peak_centers, k_prime + 1);
}

TEST(SmmTest, CoverageInvariant) {
  // Every stream point must end up within CoverageRadiusBound of a center.
  EuclideanMetric m;
  PointSet pts = StreamOf(1000, 4);
  Smm smm(&m, 4, 10);
  for (const Point& p : pts) smm.Update(p);
  PointSet centers = smm.engine().Centers();
  double bound = smm.engine().CoverageRadiusBound();
  for (const Point& p : pts) {
    double dist = 1e100;
    for (const Point& c : centers) dist = std::min(dist, m.Distance(p, c));
    EXPECT_LE(dist, bound + 1e-9);
  }
}

TEST(SmmTest, SeparationInvariant) {
  // After each update, centers are pairwise more than d_i apart (invariant 2
  // of the doubling algorithm).
  EuclideanMetric m;
  PointSet pts = StreamOf(800, 5);
  Smm smm(&m, 4, 10);
  for (const Point& p : pts) smm.Update(p);
  PointSet centers = smm.engine().Centers();
  double d_i = smm.engine().threshold();
  for (size_t i = 0; i < centers.size(); ++i) {
    for (size_t j = i + 1; j < centers.size(); ++j) {
      EXPECT_GT(m.Distance(centers[i], centers[j]), d_i - 1e-9);
    }
  }
}

TEST(SmmTest, HandlesDuplicatePoints) {
  EuclideanMetric m;
  Smm smm(&m, 2, 4);
  Point a = Point::Dense2(0, 0), b = Point::Dense2(1, 1);
  for (int i = 0; i < 50; ++i) {
    smm.Update(a);
    smm.Update(b);
  }
  PointSet coreset = smm.Finalize();
  EXPECT_GE(coreset.size(), 2u);
}

TEST(SmmTest, PhasesIncreaseWithStreamSpread) {
  EuclideanMetric m;
  Smm smm(&m, 4, 8);
  // Exponentially growing coordinates force repeated threshold doubling.
  for (int i = 0; i < 200; ++i) {
    smm.Update(Point::Dense({static_cast<float>(std::pow(1.2, i % 60)),
                             static_cast<float>(i % 7)}));
  }
  EXPECT_GE(smm.engine().phases(), 2u);
}

TEST(SmmExtTest, DelegateCountsBounded) {
  EuclideanMetric m;
  size_t k = 5, k_prime = 10;
  SmmExt smm(&m, k, k_prime);
  for (const Point& p : StreamOf(2000, 6)) smm.Update(p);
  // Total delegates <= (k'+1) * k at any time.
  EXPECT_LE(smm.engine().StoredPoints(), (k_prime + 1) * k);
  PointSet coreset = smm.Finalize();
  EXPECT_GE(coreset.size(), k);
  EXPECT_LE(coreset.size(), (k_prime + 1) * k);
}

TEST(SmmExtTest, CoresetContainsOnlyStreamPoints) {
  EuclideanMetric m;
  PointSet pts = StreamOf(300, 7);
  SmmExt smm(&m, 3, 6);
  for (const Point& p : pts) smm.Update(p);
  for (const Point& c : smm.Finalize()) {
    bool found = std::any_of(pts.begin(), pts.end(),
                             [&c](const Point& p) { return p == c; });
    EXPECT_TRUE(found);
  }
}

TEST(SmmExtTest, DelegatesAreDistinctPoints) {
  // Streams without duplicates must yield coresets without duplicates.
  EuclideanMetric m;
  PointSet pts = StreamOf(500, 8);
  SmmExt smm(&m, 4, 8);
  for (const Point& p : pts) smm.Update(p);
  PointSet coreset = smm.Finalize();
  for (size_t i = 0; i < coreset.size(); ++i) {
    for (size_t j = i + 1; j < coreset.size(); ++j) {
      EXPECT_FALSE(coreset[i] == coreset[j]) << i << "," << j;
    }
  }
}

TEST(SmmGenTest, MultiplicitiesBoundedByK) {
  EuclideanMetric m;
  size_t k = 6, k_prime = 12;
  SmmGen smm(&m, k, k_prime);
  for (const Point& p : StreamOf(2000, 9)) smm.Update(p);
  GeneralizedCoreset gc = smm.Finalize();
  EXPECT_LE(gc.size(), k_prime + 1);
  for (const WeightedPoint& e : gc.entries()) {
    EXPECT_GE(e.multiplicity, 1u);
    EXPECT_LE(e.multiplicity, k);
  }
  EXPECT_GE(gc.ExpandedSize(), k);
}

TEST(SmmGenTest, StoresOnlyKernelPoints) {
  EuclideanMetric m;
  SmmGen smm(&m, 4, 8);
  for (const Point& p : StreamOf(1000, 10)) smm.Update(p);
  // Memory in counts mode = number of centers <= k'+1.
  EXPECT_LE(smm.engine().StoredPoints(), 9u);
}

TEST(SmmGenTest, ExpandedSizeMatchesDelegateVariant) {
  // On the same stream, SMM-GEN's total multiplicity equals SMM-EXT's
  // delegate count: the two variants follow identical phase trajectories.
  EuclideanMetric m;
  PointSet pts = StreamOf(800, 11);
  SmmExt ext(&m, 5, 9);
  SmmGen gen(&m, 5, 9);
  for (const Point& p : pts) {
    ext.Update(p);
    gen.Update(p);
  }
  EXPECT_EQ(ext.Finalize().size(), gen.Finalize().ExpandedSize());
}

TEST(SmmDeathTest, RequiresKPrimeAtLeastK) {
  EuclideanMetric m;
  EXPECT_DEATH(Smm(&m, 5, 4), "CHECK failed");
}

// Forwards Distance to CosineMetric and keeps every other Metric member's
// base-class fallback, so each SMM sweep runs the scalar per-row loop.
class ScalarCosineMetric final : public Metric {
 public:
  double Distance(const Point& a, const Point& b) const override {
    return cosine_.Distance(a, b);
  }
  std::string Name() const override { return "scalar-cosine"; }

 private:
  CosineMetric cosine_;
};

// Everything the three SMM variants produce on one stream.
struct SmmRun {
  PointSet centers;
  PointSet delegates;
  GeneralizedCoreset counts;
  double threshold[3];
  size_t phases[3];
};

SmmRun RunAllSmm(const Metric* m, const PointSet& stream) {
  const size_t k = 8, k_prime = 64;
  Smm smm(m, k, k_prime);
  SmmExt ext(m, k, k_prime);
  SmmGen gen(m, k, k_prime);
  for (const Point& p : stream) {
    smm.Update(p);
    ext.Update(p);
    gen.Update(p);
  }
  SmmRun r;
  const internal_smm::SmmEngine* engines[] = {&smm.engine(), &ext.engine(),
                                              &gen.engine()};
  for (size_t v = 0; v < 3; ++v) {
    r.threshold[v] = engines[v]->threshold();
    r.phases[v] = engines[v]->phases();
  }
  r.centers = smm.Finalize();
  r.delegates = ext.Finalize();
  r.counts = gen.Finalize();
  return r;
}

void ExpectSameRun(const SmmRun& got, const SmmRun& want) {
  EXPECT_EQ(got.centers, want.centers);
  EXPECT_EQ(got.delegates, want.delegates);
  ASSERT_EQ(got.counts.size(), want.counts.size());
  for (size_t i = 0; i < got.counts.size(); ++i) {
    EXPECT_EQ(got.counts.entries()[i].point, want.counts.entries()[i].point);
    EXPECT_EQ(got.counts.entries()[i].multiplicity,
              want.counts.entries()[i].multiplicity);
  }
  for (size_t v = 0; v < 3; ++v) {
    EXPECT_EQ(got.threshold[v], want.threshold[v]) << "variant " << v;
    EXPECT_EQ(got.phases[v], want.phases[v]) << "variant " << v;
  }
}

// The sparse-cosine sweeps of the built-in metric (one query scored through
// a slot table) must follow the scalar fallbacks' trajectory exactly: the
// same core-sets, threshold and phase count, at any thread count, with an
// exact-evaluation count that does not depend on the thread count.
TEST(SmmTest, SparseCosineMatchesScalarFallbackAtAnyThreadCount) {
  SparseTextOptions opts;
  opts.n = 5000;
  opts.seed = 61;
  PointSet stream = GenerateSparseTextDataset(opts);
  ScalarCosineMetric scalar;
  CosineMetric cosine;
  SetGlobalThreadPoolSize(1);
  SmmRun want = RunAllSmm(&scalar, stream);
  EXPECT_GE(want.phases[0], 2u);
  uint64_t exact_at_one_thread = 0;
  for (size_t threads : {1, 2, 8}) {
    SCOPED_TRACE(testing::Message() << "threads " << threads);
    SetGlobalThreadPoolSize(threads);
    ExpectSameRun(RunAllSmm(&scalar, stream), want);
    CountingMetric counting(&cosine);
    ExpectSameRun(RunAllSmm(&counting, stream), want);
    if (threads == 1) exact_at_one_thread = counting.exact_evals();
    EXPECT_EQ(counting.exact_evals(), exact_at_one_thread);
  }
  SetGlobalThreadPoolSize(1);
}

// SMM as the paper describes it (Section 4), one scalar Distance per pair:
// every update finds the nearest center (first strict argmin) and discards
// or delegates the point when it lies within 4 d_i, and every merge keeps
// the greedy maximal independent set at radius 2 d_i, merging each dropped
// center into the first kept one that covers it. The library engines may
// scan in any order, but must take the same decisions.
class ReferenceSmm {
 public:
  ReferenceSmm(const Metric* metric, size_t k, size_t k_prime,
               SmmEngine::Mode mode)
      : metric_(metric), k_(k), k_prime_(k_prime), mode_(mode) {}

  // Processes p and returns true when it was covered by a center.
  bool Update(const Point& p) {
    if (!initializing_) {
      size_t host = 0;
      double best = std::numeric_limits<double>::infinity();
      for (size_t i = 0; i < centers_.size(); ++i) {
        double d = metric_->Distance(p, centers_[i].center);
        if (d < best) {
          best = d;
          host = i;
        }
      }
      if (best <= 4.0 * threshold_) {
        boundary_covers_ += best == 4.0 * threshold_ && best > 0.0;
        Center& h = centers_[host];
        if (mode_ == SmmEngine::Mode::kDelegates && h.delegates.size() < k_) {
          h.delegates.push_back(p);
        } else if (mode_ == SmmEngine::Mode::kCounts && h.count < k_) {
          ++h.count;
        }
        return true;
      }
    }
    Center c{p, {}, 1};
    if (mode_ == SmmEngine::Mode::kDelegates) c.delegates.push_back(p);
    centers_.push_back(std::move(c));
    if (centers_.size() <= k_prime_) return false;
    if (initializing_) {
      threshold_ = MinPairwise(/*positive_only=*/false);
      initializing_ = false;
    } else {
      threshold_ *= 2.0;
    }
    ++phases_;
    removed_.clear();
    for (;;) {
      Merge();
      if (centers_.size() <= k_prime_) return false;
      threshold_ = threshold_ > 0.0 ? 2.0 * threshold_
                                    : MinPairwise(/*positive_only=*/true);
      ++phases_;
    }
  }

  PointSet Centers() const {
    PointSet out;
    for (const Center& c : centers_) out.push_back(c.center);
    return out;
  }

  PointSet FinalizeCoreset() const {
    PointSet out;
    if (mode_ == SmmEngine::Mode::kDelegates) {
      for (const Center& c : centers_) {
        out.insert(out.end(), c.delegates.begin(), c.delegates.end());
      }
      return out;
    }
    out = Centers();
    for (size_t i = 0; out.size() < k_ && i < removed_.size(); ++i) {
      out.push_back(removed_[i]);
    }
    return out;
  }

  GeneralizedCoreset FinalizeCounts() const {
    GeneralizedCoreset out;
    for (const Center& c : centers_) out.Add(c.center, c.count);
    return out;
  }

  double threshold() const { return threshold_; }
  size_t phases() const { return phases_; }
  // Decisions that only the inclusive <= of the test admits: points whose
  // nearest center lies at exactly 4 d_i > 0, and merged centers whose
  // first covering kept center lies at exactly 2 d_i > 0.
  size_t boundary_covers() const { return boundary_covers_; }
  size_t boundary_merges() const { return boundary_merges_; }

 private:
  struct Center {
    Point center;
    PointSet delegates;
    size_t count;
  };

  double MinPairwise(bool positive_only) const {
    double best = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < centers_.size(); ++i) {
      for (size_t j = i + 1; j < centers_.size(); ++j) {
        double d = metric_->Distance(centers_[i].center, centers_[j].center);
        if (d > 0.0 || !positive_only) best = std::min(best, d);
      }
    }
    return best;
  }

  void Merge() {
    std::vector<Center> kept;
    for (Center& c : centers_) {
      size_t host = 0;
      while (host < kept.size() &&
             !(metric_->Distance(c.center, kept[host].center) <=
               2.0 * threshold_)) {
        ++host;
      }
      if (host == kept.size()) {
        kept.push_back(std::move(c));
        continue;
      }
      Center& h = kept[host];
      const double d = metric_->Distance(c.center, h.center);
      boundary_merges_ += d == 2.0 * threshold_ && d > 0.0;
      switch (mode_) {
        case SmmEngine::Mode::kCentersOnly:
          removed_.push_back(c.center);
          break;
        case SmmEngine::Mode::kDelegates: {
          size_t take = std::min(k_ - h.delegates.size(), c.delegates.size());
          h.delegates.insert(h.delegates.end(), c.delegates.begin(),
                             c.delegates.begin() + take);
          break;
        }
        case SmmEngine::Mode::kCounts:
          h.count += std::min(c.count, k_ - h.count);
          break;
      }
    }
    centers_ = std::move(kept);
  }

  const Metric* metric_;
  size_t k_;
  size_t k_prime_;
  SmmEngine::Mode mode_;
  std::vector<Center> centers_;
  PointSet removed_;
  double threshold_ = 0.0;
  bool initializing_ = true;
  size_t phases_ = 0;
  size_t boundary_covers_ = 0;
  size_t boundary_merges_ = 0;
};

// A stream drawn from a small pool of distinct points in runs of one to
// four copies: the first half from 20 pool points, so the initial fill
// holds duplicates and d_1 = 0 (a point is covered only at distance 0, and
// the <= of the coverage test decides), the second half from all 60, so
// the centers overflow at d_i = 0 and the threshold jumps to the smallest
// positive separation.
PointSet DuplicateHeavyStream(size_t n, uint64_t seed) {
  PointSet pool = GenerateUniformCube(60, 2, seed);
  Rng rng(seed);
  PointSet stream;
  while (stream.size() < n) {
    size_t values = stream.size() < n / 2 ? 20 : pool.size();
    const Point& p = pool[rng.Next() % values];
    for (size_t run = 1 + rng.Next() % 4; run > 0 && stream.size() < n;
         --run) {
      stream.push_back(p);
    }
  }
  return stream;
}

// Points on a side x side grid of small integers in the plane: squared
// distances are small integers, so every distance is exact, and thresholds
// (a minimum distance doubled) land on distances the grid has — centers at
// exactly 4 d_i and 2 d_i occur, where only the inclusive <= of the update
// and merge tests decides.
PointSet IntegerGridStream(size_t n, size_t side, uint64_t seed) {
  Rng rng(seed);
  PointSet stream;
  for (size_t i = 0; i < n; ++i) {
    const auto x = static_cast<float>(rng.Next() % side);
    const auto y = static_cast<float>(rng.Next() % side);
    stream.push_back(Point::Dense2(x, y));
  }
  return stream;
}

// Dense rows in [0, 1)^dim interleaved with sparse ones of the same
// dimension under Euclidean: a third dense, one in 40 sparse rows empty
// (nnz 0, the origin), and each other sparse row keeps a coordinate with
// probability 0.5. Mixed pairs run the per-pair scalar merge, sparse pairs
// the sparse kernels.
PointSet MixedDenseSparseStream(size_t n, size_t dim, uint64_t seed) {
  Rng rng(seed);
  PointSet stream;
  for (size_t i = 0; i < n; ++i) {
    if (i % 3 == 0) {
      std::vector<float> values(dim);
      for (float& v : values) v = static_cast<float>(rng.NextDouble());
      stream.push_back(Point::Dense(std::move(values)));
      continue;
    }
    std::vector<uint32_t> indices;
    std::vector<float> values;
    if (rng.NextBounded(40) != 0) {
      for (uint32_t j = 0; j < dim; ++j) {
        if (rng.NextDouble() < 0.5) {
          indices.push_back(j);
          values.push_back(static_cast<float>(rng.NextDouble()));
        }
      }
    }
    stream.push_back(Point::Sparse(std::move(indices), std::move(values),
                                   static_cast<uint32_t>(dim)));
  }
  return stream;
}

// Sparse term sets for Jaccard over a vocabulary of 96 terms in 8 topics
// of 12: each set draws 1 to 8 terms from one topic and, with probability
// 1/4, one term from anywhere. Small sets repeat and overlap, so the
// distances take few values and the threshold grows over several phases.
PointSet JaccardSetStream(size_t n, uint64_t seed) {
  constexpr uint32_t kTopics = 8, kTopicTerms = 12;
  Rng rng(seed);
  PointSet stream;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t topic = static_cast<uint32_t>(rng.NextBounded(kTopics));
    std::set<uint32_t> terms;
    for (size_t t = 1 + rng.NextBounded(8); t > 0; --t) {
      terms.insert(topic * kTopicTerms +
                   static_cast<uint32_t>(rng.NextBounded(kTopicTerms)));
    }
    if (rng.NextBounded(4) == 0) {
      terms.insert(
          static_cast<uint32_t>(rng.NextBounded(kTopics * kTopicTerms)));
    }
    std::vector<uint32_t> indices(terms.begin(), terms.end());
    std::vector<float> values(indices.size(), 1.0f);
    stream.push_back(Point::Sparse(std::move(indices), std::move(values),
                                   kTopics * kTopicTerms));
  }
  return stream;
}

// The streams both reference tests run: dense, sparse under cosine,
// duplicate-heavy, an integer grid, mixed dense and sparse rows under
// Euclidean and sparse sets under Jaccard. The last two run at a k' whose
// initial fill of k'+1 centers spans two 128-row blocks, so the pass that
// ends it evaluates a tile below the diagonal block as well as prefix
// sweeps inside it, and merges decide on those values and on the update
// scans' rows.
struct ReferenceCase {
  const char* name;
  const Metric* metric;
  PointSet stream;
  bool duplicate_heavy = false;
  bool integer_grid = false;
  size_t k_prime = 32;
};

std::vector<ReferenceCase> ReferenceCases(const Metric* euclidean,
                                          const Metric* cosine,
                                          const Metric* jaccard) {
  SparseTextOptions text;
  text.n = 3000;
  text.seed = 67;
  std::vector<ReferenceCase> cases;
  cases.push_back(
      {"dense-uniform", euclidean, GenerateUniformCube(3000, 2, 71)});
  cases.push_back(
      {"sparse-text-cosine", cosine, GenerateSparseTextDataset(text)});
  cases.push_back({"duplicate-heavy", euclidean,
                   DuplicateHeavyStream(3000, 73), /*duplicate_heavy=*/true});
  cases.push_back({"integer-grid", euclidean, IntegerGridStream(3000, 24, 84),
                   /*duplicate_heavy=*/false, /*integer_grid=*/true});
  cases.push_back({"mixed-dense-sparse-euclidean", euclidean,
                   MixedDenseSparseStream(3000, 3, 89),
                   /*duplicate_heavy=*/false, /*integer_grid=*/false,
                   /*k_prime=*/136});
  cases.push_back({"sparse-sets-jaccard", jaccard, JaccardSetStream(3000, 97),
                   /*duplicate_heavy=*/false, /*integer_grid=*/false,
                   /*k_prime=*/136});
  return cases;
}

// Smm, SmmExt and SmmGen take the reference's decisions on every reference
// stream (ReferenceCases): the same centers, core-sets,
// threshold and phases, at any thread count, with exact-evaluation counts
// that do not depend on the thread count. Base SMM tries the previous
// covered point's host first, so a covered point followed by a copy of
// itself costs one exact evaluation — also at d_i = 0, where only <= admits
// the copy. On the integer grid, covers at exactly 4 d_i > 0 and merges at
// exactly 2 d_i > 0 happen, so the inclusive tests are exercised off zero.
TEST(SmmTest, MatchesTextbookReferenceAtAnyThreadCount) {
  EuclideanMetric euclidean;
  CosineMetric cosine;
  JaccardMetric jaccard;
  const std::vector<ReferenceCase> cases =
      ReferenceCases(&euclidean, &cosine, &jaccard);
  const size_t k = 8;
  const SmmEngine::Mode modes[] = {SmmEngine::Mode::kCentersOnly,
                                   SmmEngine::Mode::kDelegates,
                                   SmmEngine::Mode::kCounts};
  for (const ReferenceCase& c : cases) {
    SCOPED_TRACE(c.name);
    std::vector<ReferenceSmm> ref;
    for (SmmEngine::Mode mode : modes) {
      ref.emplace_back(c.metric, k, c.k_prime, mode);
    }
    std::vector<bool> covered(c.stream.size());
    size_t covered_at_zero = 0;
    for (size_t t = 0; t < c.stream.size(); ++t) {
      bool zero = ref[0].phases() > 0 && ref[0].threshold() == 0.0;
      covered[t] = ref[0].Update(c.stream[t]);
      covered_at_zero += covered[t] && zero;
      ref[1].Update(c.stream[t]);
      ref[2].Update(c.stream[t]);
    }
    EXPECT_GE(ref[0].phases(), 2u);
    if (c.duplicate_heavy) EXPECT_GT(covered_at_zero, 100u);
    if (c.integer_grid) {
      for (const ReferenceSmm& r : ref) {
        EXPECT_GT(r.boundary_covers(), 0u);
        EXPECT_GT(r.boundary_merges(), 0u);
      }
    }

    uint64_t exact_at_one_thread[3] = {};
    for (size_t threads : {1, 2, 8}) {
      SCOPED_TRACE(testing::Message() << "threads " << threads);
      SetGlobalThreadPoolSize(threads);
      CountingMetric counting[3] = {CountingMetric(c.metric),
                                    CountingMetric(c.metric),
                                    CountingMetric(c.metric)};
      Smm smm(&counting[0], k, c.k_prime);
      SmmExt ext(&counting[1], k, c.k_prime);
      SmmGen gen(&counting[2], k, c.k_prime);
      size_t repeats = 0;
      for (size_t t = 0; t < c.stream.size(); ++t) {
        uint64_t before = counting[0].exact_evals();
        smm.Update(c.stream[t]);
        ext.Update(c.stream[t]);
        gen.Update(c.stream[t]);
        if (t > 0 && covered[t - 1] && c.stream[t] == c.stream[t - 1]) {
          ++repeats;
          ASSERT_EQ(counting[0].exact_evals() - before, 1u) << "update " << t;
        }
      }
      if (c.duplicate_heavy) EXPECT_GT(repeats, 100u);

      const SmmEngine* engines[] = {&smm.engine(), &ext.engine(),
                                    &gen.engine()};
      for (size_t v = 0; v < 3; ++v) {
        SCOPED_TRACE(testing::Message() << "variant " << v);
        EXPECT_EQ(engines[v]->Centers(), ref[v].Centers());
        EXPECT_EQ(engines[v]->threshold(), ref[v].threshold());
        EXPECT_EQ(engines[v]->phases(), ref[v].phases());
        if (threads == 1) exact_at_one_thread[v] = counting[v].exact_evals();
        EXPECT_EQ(counting[v].exact_evals(), exact_at_one_thread[v]);
      }
      EXPECT_EQ(smm.Finalize(), ref[0].FinalizeCoreset());
      EXPECT_EQ(ext.Finalize(), ref[1].FinalizeCoreset());
      GeneralizedCoreset counts = gen.Finalize();
      GeneralizedCoreset want = ref[2].FinalizeCounts();
      ASSERT_EQ(counts.size(), want.size());
      for (size_t i = 0; i < counts.size(); ++i) {
        EXPECT_EQ(counts.entries()[i].point, want.entries()[i].point);
        EXPECT_EQ(counts.entries()[i].multiplicity,
                  want.entries()[i].multiplicity);
      }
    }
  }
  SetGlobalThreadPoolSize(1);
}

// The Dataset loop of a streaming pass (SkipCoveredRows, then Update on
// the row after each covered run) takes the reference's decisions in every
// mode: the same centers, core-sets, threshold and phases, at any thread
// count, with exact-evaluation counts that do not depend on the thread
// count. Only base SMM skips rows. A covered row followed by a copy of
// itself leaves the copy to the skip, also at d_i = 0, where only <=
// admits it.
TEST(SmmTest, SkipCoveredRowsMatchesTextbookReferenceAtAnyThreadCount) {
  EuclideanMetric euclidean;
  CosineMetric cosine;
  JaccardMetric jaccard;
  const std::vector<ReferenceCase> cases =
      ReferenceCases(&euclidean, &cosine, &jaccard);
  const size_t k = 8;
  const SmmEngine::Mode modes[] = {SmmEngine::Mode::kCentersOnly,
                                   SmmEngine::Mode::kDelegates,
                                   SmmEngine::Mode::kCounts};
  for (const ReferenceCase& c : cases) {
    SCOPED_TRACE(c.name);
    const Dataset data(c.stream);
    for (size_t v = 0; v < 3; ++v) {
      SCOPED_TRACE(testing::Message() << "variant " << v);
      ReferenceSmm ref(c.metric, k, c.k_prime, modes[v]);
      std::vector<bool> covered(c.stream.size());
      for (size_t t = 0; t < c.stream.size(); ++t) {
        covered[t] = ref.Update(c.stream[t]);
      }
      uint64_t exact_at_one_thread = 0;
      for (size_t threads : {1, 2, 8}) {
        SCOPED_TRACE(testing::Message() << "threads " << threads);
        SetGlobalThreadPoolSize(threads);
        CountingMetric counting(c.metric);
        SmmEngine engine(&counting, k, c.k_prime, modes[v]);
        std::vector<bool> updated(c.stream.size());
        size_t skipped = 0;
        for (size_t i = 0; i < data.size(); ++i) {
          size_t run = engine.SkipCoveredRows(data, i);
          if (v > 0) ASSERT_EQ(run, 0u) << "row " << i;
          skipped += run;
          i += run;
          if (i == data.size()) break;
          updated[i] = true;
          engine.Update(data.point(i));
        }
        EXPECT_EQ(engine.points_processed(), c.stream.size());
        if (v == 0) {
          EXPECT_GT(skipped, 0u);
          size_t repeats = 0;
          for (size_t t = 1; t < c.stream.size(); ++t) {
            if (covered[t - 1] && c.stream[t] == c.stream[t - 1]) {
              ++repeats;
              ASSERT_FALSE(updated[t]) << "row " << t;
            }
          }
          if (c.duplicate_heavy) EXPECT_GT(repeats, 100u);
        }
        EXPECT_EQ(engine.Centers(), ref.Centers());
        EXPECT_EQ(engine.threshold(), ref.threshold());
        EXPECT_EQ(engine.phases(), ref.phases());
        if (modes[v] == SmmEngine::Mode::kCounts) {
          GeneralizedCoreset counts = engine.FinalizeCounts();
          GeneralizedCoreset want = ref.FinalizeCounts();
          ASSERT_EQ(counts.size(), want.size());
          for (size_t i = 0; i < counts.size(); ++i) {
            EXPECT_EQ(counts.entries()[i].point, want.entries()[i].point);
            EXPECT_EQ(counts.entries()[i].multiplicity,
                      want.entries()[i].multiplicity);
          }
        } else {
          EXPECT_EQ(engine.FinalizeCoreset(), ref.FinalizeCoreset());
        }
        if (threads == 1) exact_at_one_thread = counting.exact_evals();
        EXPECT_EQ(counting.exact_evals(), exact_at_one_thread);
      }
    }
  }
  SetGlobalThreadPoolSize(1);
}

// Merges decide from the engine's table of its centers' pairwise distances
// and evaluate nothing. So an update past the initial fill that triggers
// merge steps costs exactly its own scan, which found no host: base SMM's
// hinted center plus a FirstWithin over every center (1 + |T|), SMM-EXT's
// and SMM-GEN's argmin over every center (|T|). That holds also when the
// merges double the threshold again or, from d_i = 0, jump to the smallest
// positive separation (the duplicate-heavy stream).
TEST(SmmTest, MergeStepsEvaluateNoDistance) {
  EuclideanMetric euclidean;
  CosineMetric cosine;
  JaccardMetric jaccard;
  const std::vector<ReferenceCase> cases =
      ReferenceCases(&euclidean, &cosine, &jaccard);
  const size_t k = 8;
  const SmmEngine::Mode modes[] = {SmmEngine::Mode::kCentersOnly,
                                   SmmEngine::Mode::kDelegates,
                                   SmmEngine::Mode::kCounts};
  for (const ReferenceCase& c : cases) {
    SCOPED_TRACE(c.name);
    for (SmmEngine::Mode mode : modes) {
      SCOPED_TRACE(testing::Message() << "mode " << static_cast<int>(mode));
      CountingMetric counting(c.metric);
      SmmEngine engine(&counting, k, c.k_prime, mode);
      size_t merging_updates = 0;
      size_t zero_jumps = 0;
      for (size_t t = 0; t < c.stream.size(); ++t) {
        const size_t phases = engine.phases();
        const size_t centers = engine.Centers().size();
        const double threshold = engine.threshold();
        const uint64_t before = counting.exact_evals();
        engine.Update(c.stream[t]);
        if (phases == 0 || engine.phases() == phases) continue;
        ++merging_updates;
        zero_jumps += threshold == 0.0 && engine.threshold() > 0.0;
        const size_t scan =
            mode == SmmEngine::Mode::kCentersOnly ? 1 + centers : centers;
        ASSERT_EQ(counting.exact_evals() - before, scan) << "update " << t;
      }
      EXPECT_GT(merging_updates, 0u);
      if (c.duplicate_heavy) EXPECT_GT(zero_jumps, 0u);
    }
  }
}

// Parameterized sweep: the coreset size grows with k' and the coverage
// bound shrinks (better locality) across a range of configurations.
class SmmSweepTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {};

TEST_P(SmmSweepTest, InvariantsAcrossConfigurations) {
  auto [k, mult] = GetParam();
  size_t k_prime = k * mult;
  EuclideanMetric m;
  PointSet pts = StreamOf(1500, 17 + k + mult);
  Smm smm(&m, k, k_prime);
  for (const Point& p : pts) smm.Update(p);
  PointSet coreset = smm.Finalize();
  EXPECT_GE(coreset.size(), k);
  EXPECT_LE(coreset.size(), k_prime + 1);
  PointSet centers = smm.engine().Centers();
  double bound = smm.engine().CoverageRadiusBound();
  for (const Point& p : pts) {
    double dist = 1e100;
    for (const Point& c : centers) dist = std::min(dist, m.Distance(p, c));
    ASSERT_LE(dist, bound + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SmmSweepTest,
    ::testing::Combine(::testing::Values(2, 4, 8, 16),
                       ::testing::Values(1, 2, 4)),
    [](const ::testing::TestParamInfo<std::tuple<size_t, size_t>>& info) {
      return "k" + std::to_string(std::get<0>(info.param)) + "_mult" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace diverse
