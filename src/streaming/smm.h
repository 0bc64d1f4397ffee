// SMM: streaming core-set constructions (Section 4 of the paper).
//
// All three constructions are variants of the doubling algorithm of
// Charikar-Chekuri-Feder-Motwani for streaming k-center, run with k' >= k
// centers. The algorithm proceeds in phases; phase i has a distance
// threshold d_i and maintains a set T of at most k'+1 centers such that
// (1) every processed point is within 2 d_i of T and (2) centers are
// pairwise more than d_i apart. A phase starts with a *merge* step (replace
// T by a maximal independent set of the threshold graph at radius 2 d_i) and
// continues with an *update* step (stream points farther than 4 d_i from T
// become centers; others are discarded) until T overflows to k'+1 centers,
// when the threshold doubles.
//
// The three variants differ in what is kept besides the centers:
//   * Smm      — centers only, plus the removed set M of the current phase
//                so that the final core-set can be padded to >= k points
//                (the paper's modification). (1+eps)-core-set for
//                remote-edge / remote-cycle (Theorem 1).
//   * SmmExt   — every center t carries a delegate set E_t of at most k
//                points (including t); delegates migrate on merges.
//                (1+eps)-core-set for the four injective-proxy problems
//                (Theorem 2).
//   * SmmGen   — like SmmExt but stores only |E_t| as a multiplicity,
//                yielding a *generalized* core-set for the 2-pass algorithm
//                of Theorem 9.

#ifndef DIVERSE_STREAMING_SMM_H_
#define DIVERSE_STREAMING_SMM_H_

#include <cstddef>
#include <vector>

#include "core/dataset.h"
#include "core/generalized_coreset.h"
#include "core/metric.h"
#include "core/point.h"

namespace diverse {

namespace internal_smm {

/// Shared phase machinery of the SMM family. Not a public API.
///
/// Thread-compatibility contract: every SMM engine is a SINGLE-THREADED
/// state machine — Update/Merge mutate the center set with no internal
/// locking, by design: a stream has one consumer, and wrapping every point
/// in a mutex would dominate the per-point work. Concurrent
/// use requires one engine instance per thread (the MapReduce driver does
/// exactly this) or external serialization by the caller. Distinct
/// instances share nothing mutable, so per-thread engines need no locks.
class SmmEngine {
 public:
  enum class Mode { kCentersOnly, kDelegates, kCounts };

  /// `metric` must outlive the engine. k <= k_prime required.
  SmmEngine(const Metric* metric, size_t k, size_t k_prime, Mode mode);

  /// Processes one stream point.
  void Update(const Point& p);

  /// Base SMM past the initial fill: counts as processed the longest run
  /// of rows data[begin], data[begin + 1], ... that the hinted center
  /// covers and returns its length; 0 in the other modes and while
  /// initializing. Such rows would change nothing but the count in Update,
  /// so a caller feeds the row after the run to Update. One
  /// Metric::CoveredPrefix call at radius 4 d_i, which relies on the
  /// metric's symmetry: the hinted center is its query.
  size_t SkipCoveredRows(const Dataset& data, size_t begin);

  /// Number of stream points processed so far.
  size_t points_processed() const { return points_processed_; }

  /// Current phase threshold d_i (0 while still initializing).
  double threshold() const { return threshold_; }

  /// Number of completed merge steps (phases entered).
  size_t phases() const { return phases_; }

  /// Number of points currently held in memory (centers + delegates + the
  /// removed set M). This is the quantity bounded by Theorems 1/2/9.
  size_t StoredPoints() const;

  /// Upper bound on max_p d(p, centers) for all processed points: 4 d_i of
  /// the last phase (r_T <= 4 d_l in the proofs of Lemmas 3/4).
  double CoverageRadiusBound() const { return 4.0 * threshold_; }

  /// Centers currently in T (valid any time; used by tests to check the
  /// pairwise-separation invariant).
  PointSet Centers() const;

  /// The point core-set of a kCentersOnly or kDelegates engine. Centers
  /// only: the centers, padded from M to >= k points when possible
  /// (padding is skipped only if the whole stream had fewer points).
  /// Delegates: the union of all delegate sets.
  PointSet FinalizeCoreset() const;

  /// Finalizes in kCounts mode: the generalized core-set
  /// {(t, m_t) : t in T}.
  GeneralizedCoreset FinalizeCounts() const;

 private:
  // Per-center bookkeeping; the center itself is row i of
  // centers_columnar_.
  struct Entry {
    PointSet delegates;  // kDelegates mode; includes center, |.| <= k
    size_t count = 1;    // kCounts mode; includes center, <= k
  };

  // Runs merge steps (possibly several, doubling the threshold in between)
  // until at most k_prime centers remain. Called when T reaches k'+1.
  void MergeUntilBelowCapacity();

  // One maximal-independent-set merge at radius 2 * threshold_, decided
  // from pairwise_ without evaluating a distance.
  void MergeStep();

  const Metric* metric_;
  size_t k_;
  size_t k_prime_;
  Mode mode_;

  // T, stored once: centers_columnar_ row i is center i and centers_[i]
  // its bookkeeping. Columnar so the per-update coverage test runs as
  // devirtualized DistanceToMany scans instead of |T| virtual Distance
  // calls — an early-exit first-within scan in base SMM, an argmin in
  // EXT/GEN — and the pass that ends the initial fill runs as blocked
  // distance tiles. Appended to on insertion, replaced by a gather of the
  // kept rows after merges.
  Dataset centers_columnar_;
  std::vector<Entry> centers_;
  // The distances between the centers of T once the initial fill has
  // ended, as the packed strict lower triangle: row i (offset i(i-1)/2)
  // holds d(center i, center j) for j < i, computed with the later center
  // i as the query — the orientation in which the scalar merge asks its
  // question. The tiled pass that sets d_1 fills it; after that a new
  // center's row is the scan its own update just ran (a center opens only
  // when no center covers it, so base SMM's FirstWithin and EXT/GEN's
  // Nearest evaluated every center). Each value is thus one of the batch
  // kernels' exact evaluations, bit-equal to the scalar Distance, and
  // centers never move, so it is the value a fresh scan would compute.
  // Merges read it instead of evaluating, and then compact it to the kept
  // centers; the zero-threshold path reads its smallest positive entry.
  // Grows with |T|, to at most (k'+1)k'/2 doubles.
  std::vector<double> pairwise_;
  // An update's distances to every center it evaluated, kept for the row
  // pairwise_ gains when the point opens a center. Sized |T|.
  std::vector<double> scan_;
  // Base SMM: the center that covered the previous covered point, tried
  // first by the next update (and by SkipCoveredRows). It orders the scan,
  // never the decision, and depends only on the stream.
  size_t hint_ = 0;
  PointSet removed_;  // M: points dropped in the current phase's merges
  double threshold_ = 0.0;
  bool initializing_ = true;
  size_t points_processed_ = 0;
  size_t phases_ = 0;
};

}  // namespace internal_smm

/// Streaming core-set for remote-edge / remote-cycle (Theorem 1).
/// Memory: O(k') points, plus the centers' pairwise distances (at most
/// (k'+1)k'/2 doubles) and one row of k'+1 doubles. Use
/// k' = (32/eps')^D * k for the (1+eps) guarantee on doubling dimension D;
/// in practice small multiples of k suffice (Section 7.1).
class Smm {
 public:
  Smm(const Metric* metric, size_t k, size_t k_prime)
      : engine_(metric, k, k_prime, internal_smm::SmmEngine::Mode::kCentersOnly) {}

  /// Processes one stream point.
  void Update(const Point& p) { engine_.Update(p); }

  /// Returns the core-set (at least min(k, stream size) points).
  PointSet Finalize() const { return engine_.FinalizeCoreset(); }

  const internal_smm::SmmEngine& engine() const { return engine_; }

 private:
  internal_smm::SmmEngine engine_;
};

/// Streaming core-set for remote-clique/-star/-bipartition/-tree
/// (Theorem 2). Memory: O(k' k) points, plus the centers' pairwise
/// distances (at most (k'+1)k'/2 doubles) and one row of k'+1 doubles.
class SmmExt {
 public:
  SmmExt(const Metric* metric, size_t k, size_t k_prime)
      : engine_(metric, k, k_prime, internal_smm::SmmEngine::Mode::kDelegates) {}

  void Update(const Point& p) { engine_.Update(p); }

  /// Returns the delegate-augmented core-set T' = union of E_t.
  PointSet Finalize() const { return engine_.FinalizeCoreset(); }

  const internal_smm::SmmEngine& engine() const { return engine_; }

 private:
  internal_smm::SmmEngine engine_;
};

/// Streaming *generalized* core-set (first pass of Theorem 9).
/// Memory: O(k') pairs, plus the centers' pairwise distances (at most
/// (k'+1)k'/2 doubles) and one row of k'+1 doubles.
class SmmGen {
 public:
  SmmGen(const Metric* metric, size_t k, size_t k_prime)
      : engine_(metric, k, k_prime, internal_smm::SmmEngine::Mode::kCounts) {}

  void Update(const Point& p) { engine_.Update(p); }

  /// Returns the generalized core-set {(t, m_t)}.
  GeneralizedCoreset Finalize() const { return engine_.FinalizeCounts(); }

  /// Radius within which every stream point has a kernel point; the
  /// delta used by the second (instantiation) pass.
  double CoverageRadiusBound() const { return engine_.CoverageRadiusBound(); }

  const internal_smm::SmmEngine& engine() const { return engine_; }

 private:
  internal_smm::SmmEngine engine_;
};

}  // namespace diverse

#endif  // DIVERSE_STREAMING_SMM_H_
