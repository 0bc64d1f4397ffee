// Screen-then-certify sweeps: the mixed-precision engine behind every
// argmax / argmin / threshold hot loop.
//
// Every distance-dominated loop in this library — k-center farthest-point
// argmax, GMM's per-center relax sweeps, greedy matching's heaviest-pair
// scans, SMM's nearest-center and merge threshold scans, generalized-coreset
// instantiation — needs *exact* distances only for the handful of candidates
// that decide the outcome. The sweeps here run a cheap fp32 pass first
// (Metric::DistanceTileF32 / DistanceToManyF32: twice the SIMD lanes, half
// the bandwidth of the exact tile engine), keep every candidate whose
// screened value lies within a certified error band
// (Metric::ScreenErrorBound over the two sides' ScreenSideStats) of the
// decision threshold, and re-evaluate only those in exact double
// (Metric::DistanceRowsMany / Distance — the same shared kernels as the
// exact sweeps). Consequences:
//
//   * Results are bit-identical to the double-only path: every value that
//     can influence a comparison, a stored distance, or a reported radius is
//     an exact double; the fp32 pass only *proves* that skipped candidates
//     could not have influenced anything (tested across metrics x
//     representations x thread counts in tests/screen_test.cc).
//   * Rescue decisions depend only on the fp32 values (fixed accumulation
//     orders, deterministic bounds), never on scheduling — so evaluation
//     counts (CountingMetric: screened_evals / exact_evals) are
//     deterministic at any thread count, and the exact-eval count of a
//     screened sweep never exceeds what the pre-screening path paid.
//   * Every sweep falls back to the exact path when the metric's policy
//     turns screening off (KernelPolicy::screening, core/metric.h) or its
//     gate (Metric::ScreeningProfitableFor) says screening does not pay —
//     never for Jaccard and user-defined metrics. The policy is part of the
//     metric, so concurrent sweeps on differently built metrics never see
//     each other's choice.
//
// Screening changes *when* exactness is paid for, never the answer.

#ifndef DIVERSE_CORE_SCREEN_H_
#define DIVERSE_CORE_SCREEN_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <vector>

#include "core/dataset.h"
#include "core/metric.h"
#include "core/point.h"

namespace diverse {

/// Rows per parallel range of every row sweep (core/metric.cc's batched
/// kernels and the relax sweeps below): a fixed amount of coordinate work
/// per range. Range boundaries depend only on (n, grain), never on
/// scheduling, so per-range reductions — combined in ascending order — are
/// deterministic at any thread count.
size_t GrainRows(const Dataset& data);

// --- Certified-skip machinery ---------------------------------------------
// Shared by the screened sweeps below and by the fused tile kernels
// (Metric::ScreenedRelaxTile in core/metric.cc). The mathematically exact
// skip test is ScreenedLower(s, bound) > cur; evaluating it per pair costs
// a multiply-add in double. Instead, the sweeps precompute — once per row,
// or on a rescue that improves the row — the float threshold T(cur) such
// that a finite screened value s > T certifies exact > cur: the exact
// condition is s > (cur + abs) / (1 - rel), inflated by 1e-12 against the
// double rounding of the transform and rounded UP to the next float (both
// slops only widen the rescue band — more rescues, never an unsafe skip).
// Inner loops then run one float compare per pair. NaN and +inf screened
// values (overflowed fp32 accumulators certify nothing) always rescue: NaN
// fails every comparison and +inf fails s <= FLT_MAX.

/// Next float up for nonnegative input (+inf stays +inf): for positive IEEE
/// floats the bit pattern is monotone, so incrementing it is nextafterf
/// without the libm call.
inline float NextUpNonNegativeF32(float f) {
  if (!(f < std::numeric_limits<float>::infinity())) {
    return std::numeric_limits<float>::infinity();
  }
  uint32_t bits;
  std::memcpy(&bits, &f, sizeof(bits));
  ++bits;
  std::memcpy(&f, &bits, sizeof(bits));
  return f;
}

/// Float threshold T such that a screened value s with s > T && s <= FLT_MAX
/// certifies exact > cur under the bound whose abs term is `abs_term` and
/// whose precomputed (1 + 1e-12) / (1 - rel) is `inv_one_minus_rel`.
/// Requires cur >= 0 (distances) or +inf (never skip).
inline float ScreenSkipThreshold(double cur, double abs_term,
                                 double inv_one_minus_rel) {
  if (!(cur < std::numeric_limits<double>::infinity())) {
    return std::numeric_limits<float>::infinity();
  }
  double thr = (cur + abs_term) * inv_one_minus_rel;
  return NextUpNonNegativeF32(static_cast<float>(thr));
}

/// Largest float W such that a screened value s <= W certifies
/// exact < threshold (strictly) under `bound`; returns -1.0f when no
/// nonnegative screened value can certify it (threshold too small — every
/// candidate falls to the exact test). Monotone-safe: W under-approximates
/// the real transform by a relative 1e-12 margin that absorbs every double
/// rounding in the chain.
inline float ScreenCertifiedBelow(double threshold, const ScreenBound& bound) {
  double w = (threshold - bound.abs) / (1.0 + bound.rel) * (1.0 - 1e-12);
  if (!(w > 0.0)) return -1.0f;
  float f = static_cast<float>(w);
  while (static_cast<double>(f) >= w && f > 0.0f) {
    uint32_t bits;
    std::memcpy(&bits, &f, sizeof(bits));
    --bits;
    std::memcpy(&f, &bits, sizeof(bits));
  }
  return f;
}

/// Appends base + i for every position whose screened value cannot be
/// certified-skipped against its per-row threshold: rescue iff
/// !(t[i] > thr[i] && t[i] <= FLT_MAX). Vectorized four-wide on x86-64.
void CollectScreenRescues(const float* t, const float* thr, size_t count,
                          uint32_t base, std::vector<uint32_t>& out);

/// True when the screened sweeps should screen for `metric` (its policy
/// allows screening and its fp32 kernels are genuinely cheaper than exact).
bool UseScreening(const Metric& metric);

/// Fused multi-center relax-and-argmax over blocked tiles: for each center
/// q in ascending order and every row i,
///   d = Distance(queries.point(q_begin + q), data.point(i));
///   if (d < dist[i]) { dist[i] = d; if assignment given:
///                      assignment[i] = rank_base + q; }
/// then returns the smallest index maximizing the relaxed dist[] — executed
/// as one blocked pass over `data` (each row block is loaded once for all
/// nq centers). Parallelized over row ranges on GlobalThreadPool(); range
/// boundaries and the first-max argmax combination depend only on the
/// input sizes, so results are deterministic at any thread count. Costs
/// exactly nq * data.size() evaluations through metric.DistanceTile.
/// Requires nq >= 1, dist.size() == data.size(), and assignment empty or
/// the same size.
size_t RelaxTilesAndArgFarthest(const Metric& metric, const Dataset& queries,
                                size_t q_begin, size_t nq, size_t rank_base,
                                const Dataset& data, std::span<double> dist,
                                std::span<size_t> assignment = {});

/// The materialize-then-collect screened tile relax, correct for any metric
/// and the base Metric::ScreenedRelaxTile (same contract): fp32 tiles
/// through metric.DistanceTileF32 on thread-local scratch, band hits
/// collected against cached per-row skip thresholds, and their exact
/// re-evaluations batched through metric.DistanceRowsMany. Returns the
/// number of exact evaluations. The built-in metrics' fused kernels
/// produce the identical fold with no more rescues (pinned in screen_test).
size_t UnfusedScreenedRelaxTile(const Metric& metric, const Dataset& queries,
                                size_t q_begin, size_t nq, size_t rank_base,
                                const Dataset& data, size_t r_begin,
                                size_t nr, const ScreenBound& bound,
                                std::span<double> dist,
                                std::span<size_t> assignment);

/// Screened drop-in for RelaxTilesAndArgFarthest: identical
/// dist / assignment updates and return value, but each row range is swept
/// through the metric's fused Metric::ScreenedRelaxTile kernel — fp32
/// screen, certified skip test, and exact rescue in one register-resident
/// loop, with no intermediate fp32 tile. Falls back to the exact tile path
/// when screening is off or Metric::RelaxTileScreeningProfitableFor says
/// the layout does not pay.
size_t ScreenedRelaxTilesAndArgFarthest(const Metric& metric,
                                        const Dataset& queries, size_t q_begin,
                                        size_t nq, size_t rank_base,
                                        const Dataset& data,
                                        std::span<double> dist,
                                        std::span<size_t> assignment = {});

/// One-center relax-and-argmax with the query drawn from a dataset row
/// (queries.point(q_index) — for GMM, queries == data): the one-center case
/// of RelaxTilesAndArgFarthest, with center rank `center_rank`. Screens
/// under PlanScreenedRelax's plan and otherwise relaxes through chunked
/// exact DistanceToMany sweeps (exactly data.size() evaluations); dist,
/// assignment and the return value are identical either way.
size_t ScreenedRelaxArgFarthest(const Metric& metric, const Dataset& queries,
                                size_t q_index, const Dataset& data,
                                std::span<double> dist,
                                std::span<size_t> assignment = {},
                                size_t center_rank = 0);

/// Precomputed decision state of one ScreenedRelaxArgFarthest-style sweep:
/// whether the sweep screens at all (all the flat path's gates folded in —
/// the metric's screening policy, its profitability verdicts, the per-row-work
/// gate, and the degenerate-bound check), and when it does, the certified
/// bound plus its precomputed (1 + 1e-12) / (1 - rel). The metric index
/// (core/cover_tree.h) plans ONCE per relax step and applies the plan to
/// each surviving leaf range, so per-pair screening decisions — fp32
/// values, skip thresholds, rescue sets — are exactly the flat sweep's
/// restricted to those rows; that containment is what keeps indexed exact-
/// eval counts at or below the flat screened baseline.
struct RelaxScreenPlan {
  bool screen = false;  ///< false: every pair pays the exact kernel
  ScreenBound bound;    ///< valid when screen
  double inv_rel = 0.0; ///< (1 + 1e-12) / (1 - bound.rel) when screen
};

/// Builds the plan ScreenedRelaxArgFarthest would follow for a sweep of
/// queries-rows against `data`.
RelaxScreenPlan PlanScreenedRelax(const Metric& metric, const Dataset& queries,
                                  const Dataset& data);

/// The relax body of ScreenedRelaxArgFarthest restricted to rows
/// [begin, begin + count): relaxes dist/assignment (full-dataset spans,
/// absolute row indexing) against queries.point(q_index) under `plan`, with
/// per-pair decisions identical to the flat sweep's, and returns the number
/// of exact evaluations paid. No argmax — callers (the cover-tree leaf
/// scan) fold their own.
size_t ScreenedRelaxRange(const Metric& metric, const Dataset& queries,
                          size_t q_index, const Dataset& data, size_t begin,
                          size_t count, const RelaxScreenPlan& plan,
                          std::span<double> dist, std::span<size_t> assignment,
                          size_t center_rank);

/// First row index minimizing Distance(query, row) — ties to the smallest
/// index, exactly like a sequential strict-min scan — with the exact
/// minimum distance in *min_dist. Requires data nonempty. (SMM's
/// nearest-center update scan.) The fused sweep compares raw fp32 values
/// against precomputed float cutoffs (no per-row double bound transforms)
/// and carries no per-row work gate: it screens at any dimension.
size_t ScreenedArgClosest(const Metric& metric, const Point& query,
                          const Dataset& data, double* min_dist);

/// Outcome of the fused nearest-center + coverage sweep.
struct ScreenedNearest {
  /// True when the screen certified min distance > cover_threshold without
  /// any exact evaluation; index/dist are then unset.
  bool beyond = false;
  /// First strict argmin row (exact tie semantics) when !beyond.
  size_t index = 0;
  /// Exact minimum distance when !beyond.
  double dist = 0.0;
};

/// Fused screened "argmin + threshold" sweep (SMM's update step): one fp32
/// pass decides, per row, whether it can be the nearest center and whether
/// the whole sweep can certify min distance > cover_threshold. When it can,
/// the caller's coverage decision needs no exact evaluation at all;
/// otherwise the exact first-strict argmin and minimum are returned, bit-
/// identical to the exact scan. Requires data nonempty.
ScreenedNearest ScreenedArgClosestWithin(const Metric& metric,
                                         const Point& query,
                                         const Dataset& data,
                                         double cover_threshold);

/// First row index with Distance(query, row) <= threshold, or data.size()
/// when no row qualifies, scanning ascending with chunked early exit.
/// (SMM's merge-step membership scan.) Fused like ScreenedArgClosest: two
/// precomputed float cutoffs (certainly-within / certainly-beyond) replace
/// the per-row double bound transforms, and no per-row work gate applies.
size_t ScreenedFirstWithin(const Metric& metric, const Point& query,
                           const Dataset& data, double threshold);

/// Reusable screening state for engines that issue MANY structurally
/// identical point-vs-dataset sweeps against a slowly changing dataset and
/// a slowly changing threshold (SMM: one nearest-center sweep per stream
/// point, one membership sweep per merge candidate). The one-shot sweeps
/// above recompute the error bound and both float cutoffs on every call —
/// fixed work that dominates at low dimension. A context snapshots that
/// state keyed on the dataset's aggregate statistics (dim, dense presence,
/// max sparse support, smallest positive norm) plus the threshold, and
/// replays it until the key moves (appends rarely move the stats).
///
/// Soundness: the cached bound is the dataset-vs-dataset worst case (the
/// data's own statistics on both sides), substituted for the per-query bound only
/// when the query's side statistics are dominated by the data's own
/// extremes (a dense query needs dense rows present; a sparse query's
/// support must not exceed the data's max; a positive query norm must not
/// undercut the data's smallest positive norm). Dominated queries see a
/// bound at least as wide as their per-call bound — wider bounds rescue
/// more and skip less, never unsafely — because every ScreenErrorBound
/// here is monotone in those statistics (the base default is constant).
/// Non-dominated queries silently take the one-shot path. Results are
/// bit-identical with or without a context; only evaluation counts move.
///
/// Thread-compatibility: a context is per-engine mutable state (SMM owns
/// one per instance) and is refreshed unlocked on the calling thread —
/// share one across threads and the cache key races. One context per
/// engine, like the engines themselves (see streaming/smm.h).
class PersistentScreenContext {
 public:
  PersistentScreenContext() = default;

  /// Times the cached cutoffs were rebuilt because the key moved (tests
  /// assert amortization: rebuilds stay O(stat changes), not O(calls)).
  uint64_t rebuilds() const { return rebuilds_; }
  /// Calls that replayed the cached cutoffs without rebuilding.
  uint64_t hits() const { return hits_; }

 private:
  friend ScreenedNearest ScreenedArgClosestWithin(
      const Metric& metric, const Point& query, const Dataset& data,
      double cover_threshold, PersistentScreenContext* ctx);
  friend size_t ScreenedFirstWithin(const Metric& metric, const Point& query,
                                    const Dataset& data, double threshold,
                                    PersistentScreenContext* ctx);
  friend bool RefreshScreenContext(PersistentScreenContext& ctx,
                                   const Metric& metric, const Dataset& data,
                                   double threshold);
  friend bool ScreenContextCovers(const PersistentScreenContext& ctx,
                                  const Point& query);

  // Snapshot key.
  bool valid_ = false;
  size_t dim_ = 0;
  bool has_dense_ = false;
  size_t max_nnz_ = 0;
  double min_positive_norm_ = 0.0;
  double threshold_ = -1.0;
  // Cached derived state (meaningful while valid_).
  ScreenBound bound_;
  double inv_rel_ = 0.0;
  float beyond_ = 0.0f;   // certify exact > threshold_ cutoff
  float within_ = -1.0f;  // certify exact < threshold_ cutoff
  uint64_t rebuilds_ = 0;
  uint64_t hits_ = 0;
};

/// ScreenedArgClosestWithin with a persistent context (nullptr falls back
/// to the one-shot overload). Bit-identical results; the context only
/// amortizes the per-call bound and cutoff precomputation.
ScreenedNearest ScreenedArgClosestWithin(const Metric& metric,
                                         const Point& query,
                                         const Dataset& data,
                                         double cover_threshold,
                                         PersistentScreenContext* ctx);

/// ScreenedFirstWithin with a persistent context (nullptr falls back to
/// the one-shot overload). Bit-identical results.
size_t ScreenedFirstWithin(const Metric& metric, const Point& query,
                           const Dataset& data, double threshold,
                           PersistentScreenContext* ctx);

}  // namespace diverse

#endif  // DIVERSE_CORE_SCREEN_H_
