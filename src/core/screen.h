// Screen-then-certify sweeps: the mixed-precision engine behind GMM's relax
// sweep, with the certify helpers its other users share.
//
// GMM's per-center relax sweep (and through it GMM-EXT, GMM-GEN and greedy
// matching's clustering), greedy matching's heaviest-pair scans and
// generalized-coreset instantiation need *exact* distances only for the
// handful of candidates that decide the outcome. They run a cheap fp32 pass
// first (Metric::DistanceTileF32 / DistanceRowsManyF32: twice the SIMD
// lanes, half the bandwidth of the exact kernels), keep every candidate
// whose screened value lies within a certified error band
// (Metric::ScreenErrorBound over the two sides' ScreenSideStats) of the
// decision threshold, and re-evaluate only those in exact double
// (Metric::DistanceRowsMany / DistanceTile — the same shared kernels as the
// exact sweeps). SMM's update and merge scans over its few centers are
// exact (streaming/smm.cc). Consequences:
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
//     always for Jaccard and user-defined metrics. The policy is part of the
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

namespace diverse {

/// Rows per parallel range of every row sweep (core/metric.cc's batched
/// kernels and the relax sweep below): a fixed amount of coordinate work
/// per range. Range boundaries depend only on (n, grain), never on
/// scheduling, so per-range reductions — combined in ascending order — are
/// deterministic at any thread count.
size_t GrainRows(const Dataset& data);

// --- Certified-skip machinery ---------------------------------------------
// Shared by the relax sweep below and greedy matching's pair scan. The mathematically exact skip test is
// ScreenedLower(s, bound) > cur; evaluating it per pair costs a multiply-add in
// double. Instead, the sweeps precompute — once per row, or on a rescue that
// improves the row — the float threshold T(cur) such that a finite screened
// value s > T certifies exact > cur: the exact condition is s > (cur + abs) /
// (1 - rel), inflated by 1e-12 against the double rounding of the transform and
// rounded UP to the next float (both slops only widen the rescue band — more
// rescues, never an unsafe skip). Inner loops then run one float compare per
// pair. NaN and +inf screened values (overflowed fp32 accumulators certify
// nothing) always rescue: NaN fails every comparison and +inf fails s <=
// FLT_MAX.

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

/// True when a screened sweep of `queries` against `data` should screen
/// for `metric`: its policy allows screening (KernelPolicy::screening) and
/// its gate (Metric::ScreeningProfitableFor) says the fp32 pass pays on
/// this layout.
bool UseScreening(const Metric& metric, const ScreenSideStats& queries,
                  const ScreenSideStats& data);

/// True when triangle-inequality pruning (GMM's per-step skip, core/gmm.h,
/// and greedy matching's cluster-pair bound, core/sequential.h) may run for
/// `metric` over `data`: its policy allows indexing (KernelPolicy::indexing)
/// and the metric opted in (its IndexSlack over `data` is finite).
bool UseIndexing(const Metric& metric, const Dataset& data);

/// One-center relax-and-argmax, the sweep of every GMM step: for every row
/// i with center c = data.point(center),
///   d = Distance(c, data.point(i));
///   if (d < dist[i]) { dist[i] = d; if assignment given:
///                      assignment[i] = center_rank; }
/// then returns the smallest index maximizing the relaxed dist[].
/// `skip_at` is empty or holds one bound per value of assignment[]: a row
/// with dist[i] <= skip_at[assignment[i]] is left as it is without reading
/// its coordinates. The caller certifies that c cannot strictly improve
/// such a row (GMM derives the bounds from the triangle inequality,
/// core/gmm.cc); assignment must then be given. The remaining rows are
/// screened when the metric's gate and a per-row work gate allow it, and
/// otherwise relaxed through exact DistanceRowsMany calls (one evaluation
/// per remaining row); dist, assignment and the return value are identical
/// either way. Parallelized over row ranges on GlobalThreadPool(); range
/// boundaries and the first-max combination depend only on the input
/// sizes, so results and evaluation counts are deterministic at any thread
/// count. Requires dist.size() == data.size(), and assignment empty or the
/// same size.
size_t ScreenedRelaxArgFarthest(const Metric& metric, const Dataset& data,
                                size_t center, std::span<double> dist,
                                std::span<size_t> assignment = {},
                                size_t center_rank = 0,
                                std::span<const double> skip_at = {});

}  // namespace diverse

#endif  // DIVERSE_CORE_SCREEN_H_
