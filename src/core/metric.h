// Distance metrics.
//
// All algorithms in this library are metric-oblivious: they depend only on a
// `Metric` that returns pairwise distances satisfying the metric axioms. The
// paper evaluates on Euclidean distance (synthetic R^2/R^3 data) and the
// cosine distance arccos(u.v / (|u||v|)) (musiXmatch); the Jaccard distance is
// called out as a practically important case, and L1 is included because the
// (1+eps)-approximation results of [Fekete-Meijer 04] concern rectilinear
// spaces. All four are genuine metrics (the cosine distance here is the
// *angular* distance, which satisfies the triangle inequality).

#ifndef DIVERSE_CORE_METRIC_H_
#define DIVERSE_CORE_METRIC_H_

#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>

#include "core/point.h"

namespace diverse {

class Dataset;

/// Certified error bound of an fp32 screening kernel: for every finite
/// screened value s approximating an exact distance d,
///   |s - d| <= rel * s + abs.
/// Non-finite screened values (fp32 overflow) certify nothing — the helpers
/// below map them to unbounded intervals so they are always rescued. Bounds
/// are derived from worst-case float-accumulation analysis over the term
/// counts and norms of the datasets involved (derivations in the README);
/// they are deliberately conservative — an over-wide band costs extra exact
/// re-evaluations, never a wrong result.
struct ScreenBound {
  double rel = 0.0;
  double abs = 0.0;
};

/// Smallest exact distance compatible with screened value `s` under `b`
/// (-inf when s is not finite). `exact > t` is certified iff
/// ScreenedLower(s, b) > t.
inline double ScreenedLower(float s, const ScreenBound& b) {
  double d = s;
  if (!std::isfinite(d)) return -std::numeric_limits<double>::infinity();
  return d - (b.rel * d + b.abs);
}

/// The statistics of one side of a sweep — the query rows or the swept
/// data — that the screening bounds and the kernel gates read.
/// Reading nothing else keeps every bound and every gate verdict
/// deterministic and independent of thread count.
struct ScreenSideStats {
  bool has_dense = false;     ///< some row is dense
  bool has_sparse = false;    ///< some row is sparse
  size_t max_sparse_nnz = 0;  ///< largest sparse support
  /// Smallest strictly positive norm (+inf when there is none).
  double min_positive_norm = std::numeric_limits<double>::infinity();
};

ScreenSideStats SideStatsOf(const Dataset& data);

/// Which accelerated tiers the sweeps over a metric may use. Every setting
/// yields bit-identical results; the policy only moves cost (A/B
/// benchmarking, escape hatch). It travels with the Metric every sweep
/// already receives, so two concurrent solves on differently built metrics
/// never see each other's choice.
struct KernelPolicy {
  /// Certified fp32 screening (core/screen.h), where the metric's gate
  /// says it pays.
  bool screening = true;
  /// Triangle-inequality pruning, where the metric opts in through
  /// IndexSlack: GMM's per-step skip of rows the new center cannot improve
  /// (core/gmm.h) and greedy matching's cluster-pair bound
  /// (core/sequential.h). The CLI's --indexing=0 turns it off.
  bool indexing = true;
};

/// Interface for a distance function over `Point`s.
///
/// Implementations must satisfy the metric axioms: nonnegativity,
/// d(x,x) = 0, symmetry, and the triangle inequality (property-tested in
/// tests/metric_test.cc). Only Distance and Name are required; every other
/// member has a base-class fallback that is correct for any metric, so
/// user-defined metrics work without overriding anything.
///
/// The batched kernels run over columnar `Dataset` storage
/// (core/dataset.h). The batch-kernel contract:
///   * out[i] == Distance(query, data.point(begin + i)) bit-for-bit — the
///     batch path runs the same shared kernels (core/vector_kernels.h) in
///     the same order as the scalar path;
///   * exactly as many distance evaluations are performed as the signature
///     implies (out.size(), nq * nr, rows.size()) — CountingMetric relies
///     on this to keep work accounting machine-independent (CoveredPrefix,
///     whose cost depends on its answer, is counted from the answer);
///   * results are deterministic at any thread count: rows are partitioned
///     into ranges that depend only on the input size, and reductions
///     combine ranges in ascending order.
/// The built-in metrics (KernelMetric below) implement them with
/// devirtualized loops over the columnar rows.
///
/// Each metric also carries the KernelPolicy its sweeps read (fixed at
/// construction; user-defined metrics get the default).
///
/// Eleven virtuals: Distance and Name, the exact kernels DistanceToMany,
/// DistanceTile and DistanceRowsMany, the threshold question
/// CoveredPrefix, the fp32 kernels DistanceTileF32 and DistanceRowsManyF32,
/// and the bounds and gates ScreenErrorBound, ScreeningProfitableFor and
/// IndexSlack.
class Metric {
 public:
  virtual ~Metric() = default;

  const KernelPolicy& policy() const { return policy_; }

  /// Distance between two points. Must be thread-safe.
  virtual double Distance(const Point& a, const Point& b) const = 0;

  /// out[i] = Distance(query, data.point(begin + i)) for i in
  /// [0, out.size()). Requires begin + out.size() <= data.size().
  /// Parallelized on GlobalThreadPool for large sweeps.
  virtual void DistanceToMany(const Point& query, const Dataset& data,
                              size_t begin, std::span<double> out) const;

  /// Length of the leading run of rows in [begin, limit) within `radius`
  /// of `query`: the largest m with Distance(query, data.point(i)) <=
  /// radius for every i in [begin, begin + m). Requires begin <= limit <=
  /// data.size(). Every decision is the one the exact distance takes (a
  /// NaN distance is a miss). It implies m evaluations, plus one for the
  /// row that ended the run when m < limit - begin; CountingMetric counts
  /// that. The base implementation runs DistanceToMany over blocks of 16
  /// rows, doubling to 256 while every row is covered, so it may evaluate
  /// up to a block's tail past the miss. The built-in metrics walk a
  /// sparse query's run row by row on the calling thread and stop at the
  /// first miss (cosine decides most rows from the cosine itself, without
  /// the arccos).
  virtual size_t CoveredPrefix(const Point& query, const Dataset& data,
                               size_t begin, size_t limit,
                               double radius) const;

  /// Blocked many-vs-many kernel: a Q x R tile of distances,
  ///   out[q * out_stride + r] =
  ///       Distance(queries.point(q_begin + q), data.point(r_begin + r))
  /// for q in [0, nq), r in [0, nr). Requires q_begin + nq <= queries.size(),
  /// r_begin + nr <= data.size(), and out_stride >= nr (out_stride lets
  /// callers write tiles directly into a larger row-major matrix).
  ///
  /// The built-in metrics compute dense x dense blocks with the multi-query
  /// lane kernels of core/vector_kernels.h and sparse x sparse blocks with
  /// the blocked CSR intersection kernels of core/sparse_kernels.h (each
  /// sparse query block is decoded once and every CSR row streamed a single
  /// time against all lanes) — both bit-identical to the scalar kernels.
  /// Mixed dense/sparse pairs run the exact per-pair scalar merge, as do
  /// sparse blocks whose layout the strategy picker deems unprofitable
  /// (the choice reads only the block and the Dataset's nnz statistics, so
  /// it never changes results or determinism). The tile is computed on the
  /// calling thread: callers that want parallelism partition their work
  /// into tiles across the thread pool (see the greedy-matching pair scan
  /// in core/sequential.cc), which keeps nested kernel calls deadlock-free
  /// and results independent of thread count.
  virtual void DistanceTile(const Dataset& queries, size_t q_begin, size_t nq,
                            const Dataset& data, size_t r_begin, size_t nr,
                            double* out, size_t out_stride) const;

  /// fp32 screening tile: same geometry as DistanceTile but float outputs,
  /// each approximating the exact distance within ScreenErrorBound. The
  /// base implementation runs the exact DistanceTile and narrows to float
  /// (bound: one fp32 rounding). Overriding this without overriding
  /// ScreenErrorBound to match is a correctness bug — the screened sweeps
  /// certify skips against the bound.
  virtual void DistanceTileF32(const Dataset& queries, size_t q_begin,
                               size_t nq, const Dataset& data, size_t r_begin,
                               size_t nr, float* out,
                               size_t out_stride) const;

  /// Exact distances from row i of `a` to each listed row of `b`:
  /// out[t] == Distance(a.point(i), b.point(rows[t])) bit for bit (every
  /// kernel is symmetric in its operands). The rescue path of the screened
  /// sweeps — they gather a tile's rescued rows and pay one call (and, for
  /// Euclidean, one batched SQRTPD pass) — and, with one row, the exact
  /// distance of a single row pair. Computed on the calling thread.
  virtual void DistanceRowsMany(const Dataset& a, size_t i, const Dataset& b,
                                std::span<const uint32_t> rows,
                                double* out) const;

  /// fp32 twin of DistanceRowsMany: out[t] approximates
  /// Distance(a.point(i), b.point(rows[t])) within ScreenErrorBound of the
  /// two datasets' statistics, and does not depend on which other rows are
  /// listed. The screening pass of the relax sweep (core/screen.h), whose
  /// rows are scattered. Computed on the calling thread. The base narrows
  /// DistanceRowsMany.
  virtual void DistanceRowsManyF32(const Dataset& a, size_t i,
                                   const Dataset& b,
                                   std::span<const uint32_t> rows,
                                   float* out) const;

  /// Certified |screened - exact| bound valid for every (query, data row)
  /// pair of the fp32 kernels, from the statistics of the two sides and the
  /// ambient dimension. The base returns one fp32 rounding, which matches
  /// its narrowing fp32 fallbacks.
  virtual ScreenBound ScreenErrorBound(const ScreenSideStats& queries,
                                       const ScreenSideStats& data,
                                       size_t dim) const;

  /// True when the fp32 kernels above are real reduced-precision
  /// implementations that make a screening pass over this layout cheaper
  /// than the exact sweep — the gate the screened sweeps of core/screen.h
  /// consult (UseScreening). Either verdict yields bit-identical results;
  /// the gate only moves cost. False for the base class (its fp32 kernels
  /// do full exact work and then narrow) and for Jaccard (integer-exact
  /// support counting is already the cheap path, and its discrete value set
  /// makes screened ties — which always rescue — common). Cosine narrows it
  /// to dense-only layouts: a sparse sweep's cost is finding the index
  /// intersection, which the exact one-query slot-table path already pays
  /// once per row term, so an fp32 pass could only add a second walk plus
  /// rescues.
  virtual bool ScreeningProfitableFor(const ScreenSideStats& /*queries*/,
                                      const ScreenSideStats& /*data*/) const {
    return false;
  }

  /// Certified rounding slack of the *exact double* kernels: for every row
  /// pair, |computed - true| <= rel * computed + abs. GMM's skip bound
  /// (core/gmm.cc) chains two computed distances through the triangle
  /// inequality, and greedy matching's
  /// cluster-pair bound (core/sequential.h) chains three computed distances
  /// through the triangle inequality (a row's distance to its cluster
  /// center, the center-to-center distance, and the other row's), so it
  /// widens their sum by this band before pruning — a prune is then sound
  /// even though the chained values are computed doubles, not true reals.
  /// Reads only dataset statistics, so every prune decision is
  /// deterministic.
  ///
  /// A finite band is also the opt-in to indexing at all. The base returns
  /// an unbounded band (abs = +inf), which keeps the bound off: user-defined
  /// "distances" (dot-product similarity and friends) need not satisfy the
  /// triangle inequality. All four built-in metrics opt in — the cosine
  /// distance here is the angular distance, a genuine metric, so its
  /// cluster bounds prune in angular space.
  virtual ScreenBound IndexSlack(const Dataset& data) const;

  /// Human-readable metric name, e.g. "euclidean".
  virtual std::string Name() const = 0;

 protected:
  explicit Metric(KernelPolicy policy = {}) : policy_(policy) {}

 private:
  KernelPolicy policy_;
};

/// The built-in metrics: one implementation of every kernel above,
/// parameterized on a kernel trait K (core/metric.cc) that supplies the
/// exact and fp32 pair and lane kernels, the certified screening bound and
/// index slack, the gates, and the name. The members are defined and
/// explicitly instantiated for the four traits in core/metric.cc.
template <typename K>
class KernelMetric final : public Metric {
 public:
  explicit KernelMetric(KernelPolicy policy = {}) : Metric(policy) {}

  double Distance(const Point& a, const Point& b) const override;
  void DistanceToMany(const Point& query, const Dataset& data, size_t begin,
                      std::span<double> out) const override;
  size_t CoveredPrefix(const Point& query, const Dataset& data, size_t begin,
                       size_t limit, double radius) const override;
  void DistanceTile(const Dataset& queries, size_t q_begin, size_t nq,
                    const Dataset& data, size_t r_begin, size_t nr,
                    double* out, size_t out_stride) const override;
  void DistanceTileF32(const Dataset& queries, size_t q_begin, size_t nq,
                       const Dataset& data, size_t r_begin, size_t nr,
                       float* out, size_t out_stride) const override;
  void DistanceRowsMany(const Dataset& a, size_t i, const Dataset& b,
                        std::span<const uint32_t> rows,
                        double* out) const override;
  void DistanceRowsManyF32(const Dataset& a, size_t i, const Dataset& b,
                           std::span<const uint32_t> rows,
                           float* out) const override;
  ScreenBound ScreenErrorBound(const ScreenSideStats& queries,
                               const ScreenSideStats& data,
                               size_t dim) const override;
  bool ScreeningProfitableFor(const ScreenSideStats& queries,
                              const ScreenSideStats& data) const override;
  ScreenBound IndexSlack(const Dataset& data) const override;
  std::string Name() const override;
};

struct EuclideanKernel;
struct ManhattanKernel;
struct CosineKernel;
struct JaccardKernel;

/// Standard Euclidean (L2) distance.
using EuclideanMetric = KernelMetric<EuclideanKernel>;

/// Rectilinear (L1 / Manhattan) distance.
using ManhattanMetric = KernelMetric<ManhattanKernel>;

/// Angular cosine distance arccos(u.v / (|u||v|)) in radians, exactly the
/// `dist` function of the paper's Section 7. Zero vectors are at distance 0
/// from each other and pi/2 from any nonzero vector (the convention that
/// keeps the function a metric on the datasets we generate, which exclude
/// zero vectors anyway).
using CosineMetric = KernelMetric<CosineKernel>;

/// Jaccard distance between coordinate supports (the "dissimilarity distance
/// in database queries" of the paper's introduction). Never screens: it
/// keeps the base-class fp32 fallbacks.
using JaccardMetric = KernelMetric<JaccardKernel>;

extern template class KernelMetric<EuclideanKernel>;
extern template class KernelMetric<ManhattanKernel>;
extern template class KernelMetric<CosineKernel>;
extern template class KernelMetric<JaccardKernel>;

/// Decorator that counts distance evaluations. The count is the standard
/// machine-independent cost measure for diversity/clustering algorithms and
/// is used by tests (complexity assertions) and benches (work accounting).
/// Batched kernels count the exact number of evaluations they perform
/// (out.size(), nq * nr or rows.size() per the batch-kernel contract, and
/// a CoveredPrefix its run plus the row that ended it), so
/// the counter agrees with the scalar path for identical work regardless of
/// batching or thread count. Screened (fp32) and exact (double) evaluations
/// are accounted separately: the exact count of a screened sweep is its
/// rescue work and never exceeds the count the pre-screening path would
/// have paid for the same sweep.
class CountingMetric final : public Metric {
 public:
  /// Wraps `base`, which must outlive this object, under its policy.
  explicit CountingMetric(const Metric* base)
      : Metric(base->policy()), base_(base) {}

  double Distance(const Point& a, const Point& b) const override {
    count_.fetch_add(1, std::memory_order_relaxed);
    return base_->Distance(a, b);
  }

  void DistanceToMany(const Point& query, const Dataset& data, size_t begin,
                      std::span<double> out) const override {
    count_.fetch_add(out.size(), std::memory_order_relaxed);
    base_->DistanceToMany(query, data, begin, out);
  }

  /// Counts the rows whose distance decided the run: the run, plus the row
  /// that ended it before `limit`.
  size_t CoveredPrefix(const Point& query, const Dataset& data, size_t begin,
                       size_t limit, double radius) const override {
    const size_t run = base_->CoveredPrefix(query, data, begin, limit, radius);
    count_.fetch_add(run + (begin + run < limit ? 1 : 0),
                     std::memory_order_relaxed);
    return run;
  }

  void DistanceTile(const Dataset& queries, size_t q_begin, size_t nq,
                    const Dataset& data, size_t r_begin, size_t nr,
                    double* out, size_t out_stride) const override {
    count_.fetch_add(nq * nr, std::memory_order_relaxed);
    base_->DistanceTile(queries, q_begin, nq, data, r_begin, nr, out,
                        out_stride);
  }

  void DistanceTileF32(const Dataset& queries, size_t q_begin, size_t nq,
                       const Dataset& data, size_t r_begin, size_t nr,
                       float* out, size_t out_stride) const override {
    screened_.fetch_add(nq * nr, std::memory_order_relaxed);
    base_->DistanceTileF32(queries, q_begin, nq, data, r_begin, nr, out,
                           out_stride);
  }

  void DistanceRowsMany(const Dataset& a, size_t i, const Dataset& b,
                        std::span<const uint32_t> rows,
                        double* out) const override {
    count_.fetch_add(rows.size(), std::memory_order_relaxed);
    base_->DistanceRowsMany(a, i, b, rows, out);
  }

  void DistanceRowsManyF32(const Dataset& a, size_t i, const Dataset& b,
                           std::span<const uint32_t> rows,
                           float* out) const override {
    screened_.fetch_add(rows.size(), std::memory_order_relaxed);
    base_->DistanceRowsManyF32(a, i, b, rows, out);
  }

  ScreenBound ScreenErrorBound(const ScreenSideStats& queries,
                               const ScreenSideStats& data,
                               size_t dim) const override {
    return base_->ScreenErrorBound(queries, data, dim);
  }

  bool ScreeningProfitableFor(const ScreenSideStats& queries,
                              const ScreenSideStats& data) const override {
    return base_->ScreeningProfitableFor(queries, data);
  }

  ScreenBound IndexSlack(const Dataset& data) const override {
    return base_->IndexSlack(data);
  }

  std::string Name() const override { return "counting(" + base_->Name() + ")"; }

  /// Number of exact distance evaluations since construction or the last
  /// Reset(). (Kept as `count` for the pre-screening callers.)
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }

  /// Exact (double) evaluations — alias of count().
  uint64_t exact_evals() const { return count(); }

  /// Screened (fp32) evaluations through the F32 kernels.
  uint64_t screened_evals() const {
    return screened_.load(std::memory_order_relaxed);
  }

  /// Resets both counters to zero.
  void Reset() {
    count_.store(0, std::memory_order_relaxed);
    screened_.store(0, std::memory_order_relaxed);
  }

 private:
  const Metric* base_;
  mutable std::atomic<uint64_t> count_{0};
  mutable std::atomic<uint64_t> screened_{0};
};

/// Constructs a built-in metric by its Name(): "euclidean", "manhattan",
/// "cosine" or "jaccard". Returns null for any other name. This is the
/// factory the CLI and the distributed workers resolve --metric / wire
/// metric names through; user-defined Metric subclasses have no portable
/// name, which is why the socket transport accepts only these four.
/// Workers build theirs with the default policy.
std::unique_ptr<Metric> MakeMetricByName(const std::string& name,
                                         KernelPolicy policy = {});

/// Sparse query-block decode-cache instrumentation (the CountingMetric-style
/// proof of reuse asked of the cache): the blocked sparse engines decode
/// each query block's CSR lanes into per-thread scratch
/// (kernels::PackSparseQueryLanes) before streaming data rows. The decode is
/// now cached per thread, keyed on (Dataset::content_stamp, absolute block
/// rows, lane count, direct-index dim), so a block re-swept by the same
/// thread — consecutive row ranges of one tiled sweep, or one center's
/// rescues across the row chunks of a flat sweep — skips the re-decode.
/// Counters are process-global, relaxed, and test-only.
uint64_t SparseQueryDecodeCount();  ///< decodes performed (cache misses)
uint64_t SparseQueryDecodeHits();   ///< decodes skipped by the cache
void ResetSparseQueryDecodeStats();

}  // namespace diverse

#endif  // DIVERSE_CORE_METRIC_H_
