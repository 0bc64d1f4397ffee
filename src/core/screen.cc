#include "core/screen.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "util/check.h"
#include "util/thread_pool.h"

#if defined(__x86_64__) && defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace diverse {

namespace {

// Rows per chunk of a single-query relax: bounds the thread-local scratch.
constexpr size_t kRelaxChunk = 512;

// The relax sweep (GMM's per-center loop) gates on per-row coordinate
// work: its fp32 pass re-reads a materialized buffer and the rescue band
// stays populated throughout the k-step trajectory, so below ~8 coords per
// row the screen only ties the exact sweep. The decision reads only
// dataset statistics — deterministic, and either verdict is bit-identical.
bool SingleQueryScreenWorthwhile(const Dataset& data) {
  size_t work = data.has_dense_rows() ? data.dim() : 0;
  const Dataset::SparseStats& ss = data.sparse_stats();
  if (ss.rows > 0) {
    work = std::max(work, static_cast<size_t>(2.0 * ss.AvgNnz()));
  }
  return work >= 8;
}

// The largest non-NaN value of v[0, count), or -inf when there is none.
// Over non-NaN doubles max is exact and order-free (up to the sign of a
// zero, which no comparison sees), so the lanes may fold in any order.
double MaxIgnoringNaN(const double* v, size_t count) {
  double m = -std::numeric_limits<double>::infinity();
  size_t i = 0;
#if defined(__x86_64__) && defined(__SSE2__)
  // _mm_max_pd returns its second operand when either one is NaN, so with
  // the accumulator second a NaN row never enters it.
  __m128d acc0 = _mm_set1_pd(m);
  __m128d acc1 = acc0;
  for (; i + 4 <= count; i += 4) {
    acc0 = _mm_max_pd(_mm_loadu_pd(v + i), acc0);
    acc1 = _mm_max_pd(_mm_loadu_pd(v + i + 2), acc1);
  }
  acc0 = _mm_max_pd(acc0, acc1);
  m = _mm_cvtsd_f64(_mm_max_pd(acc0, _mm_unpackhi_pd(acc0, acc0)));
#endif
  for (; i < count; ++i) {
    if (v[i] > m) m = v[i];
  }
  return m;
}

// The parallel skeleton of the relax-and-argmax sweep: runs relax(lo, hi)
// over all rows of `data` — GrainRows ranges on the pool, each cut into
// blocks of at most kRelaxChunk rows — and returns the smallest index
// maximizing the relaxed dist[] (NaNs ignored). Each range folds its first
// maximum block by block while the block is cache-warm: one vector max per
// block, and only a block whose max beats the running one is searched for
// the first row equal to it, so a block that merely ties keeps the earlier
// row. Ranges combine in ascending order with a strict comparison, which
// reproduces a sequential first-max scan exactly at any thread count.
// relax(lo, hi) may touch only rows [lo, hi) of dist and assignment.
template <typename RelaxFn>
size_t RelaxArgFarthestRanges(const Dataset& data, std::span<double> dist,
                              std::span<size_t> assignment,
                              const RelaxFn& relax) {
  size_t n = data.size();
  DIVERSE_CHECK_EQ(dist.size(), n);
  if (!assignment.empty()) DIVERSE_CHECK_EQ(assignment.size(), n);
  if (n == 0) return 0;
  size_t grain = GrainRows(data);
  size_t num_ranges = (n + grain - 1) / grain;
  // SIZE_MAX marks ranges a single inline call subsumed (the pool runs the
  // whole sweep as one range when the work is small or it has one worker).
  std::vector<size_t> range_best(num_ranges, SIZE_MAX);
  GlobalThreadPool().ParallelForRanges(n, grain, [&](size_t lo, size_t hi) {
    size_t local_best = lo;
    double local_val = -std::numeric_limits<double>::infinity();
    for (size_t b = lo; b < hi;) {
      size_t e = hi - b > kRelaxChunk ? b + kRelaxChunk : hi;
      relax(b, e);
      double block_max = MaxIgnoringNaN(dist.data() + b, e - b);
      if (block_max > local_val) {
        local_val = block_max;
        local_best = b;
        while (!(dist[local_best] == block_max)) ++local_best;
      }
      b = e;
    }
    range_best[lo / grain] = local_best;
  });
  size_t best = range_best[0];
  DIVERSE_CHECK_LT(best, n);
  for (size_t r = 1; r < num_ranges; ++r) {
    size_t candidate = range_best[r];
    if (candidate == SIZE_MAX) continue;
    if (dist[candidate] > dist[best]) best = candidate;
  }
  return best;
}

}  // namespace

size_t GrainRows(const Dataset& data) {
  // A fixed amount of coordinate work per range, so dispatch overhead stays
  // negligible at any dimension, with a floor that keeps ranges coarse for
  // very high-dimensional rows.
  constexpr size_t kGrainOps = 16384;
  constexpr size_t kMinGrainRows = 256;
  size_t dim = std::max<size_t>(data.dim(), 1);
  return std::max(kMinGrainRows, kGrainOps / dim);
}

void CollectScreenRescues(const float* t, const float* thr, size_t count,
                          uint32_t base, std::vector<uint32_t>& out) {
  const float flt_max = std::numeric_limits<float>::max();
  size_t i = 0;
#if defined(__x86_64__) && defined(__SSE2__)
  // The SSE2 fast path tests four lanes per compare and decodes lanes only
  // when at least one of the four rescues — on realistic sweeps the vast
  // majority of quads skip in two packed compares.
  const __m128 vmax = _mm_set1_ps(flt_max);
  for (; i + 4 <= count; i += 4) {
    __m128 tv = _mm_loadu_ps(t + i);
    __m128 skip = _mm_and_ps(_mm_cmpgt_ps(tv, _mm_loadu_ps(thr + i)),
                             _mm_cmple_ps(tv, vmax));
    int mask = _mm_movemask_ps(skip);
    if (mask == 0xF) continue;
    for (uint32_t j = 0; j < 4; ++j) {
      if ((mask & (1 << j)) == 0) {
        out.push_back(base + static_cast<uint32_t>(i) + j);
      }
    }
  }
#endif
  for (; i < count; ++i) {
    float v = t[i];
    if (v > thr[i] && v <= flt_max) continue;
    out.push_back(base + static_cast<uint32_t>(i));
  }
}

bool UseScreening(const Metric& metric, const ScreenSideStats& queries,
                  const ScreenSideStats& data) {
  return metric.policy().screening &&
         metric.ScreeningProfitableFor(queries, data);
}

bool UseIndexing(const Metric& metric, const Dataset& data) {
  return metric.policy().indexing &&
         metric.IndexSlack(data).abs < std::numeric_limits<double>::infinity();
}

namespace {

// Whether a ScreenedRelaxArgFarthest sweep over `data` screens at all (the
// metric's screening policy, its profitability verdict, the per-row work
// gate and the degenerate-bound check), and when it does, the certified
// bound plus its precomputed (1 + 1e-12) / (1 - rel).
struct RelaxScreenPlan {
  bool screen = false;  // false: every pair pays the exact kernel
  ScreenBound bound;    // valid when screen
  double inv_rel = 0.0; // (1 + 1e-12) / (1 - bound.rel) when screen
};

RelaxScreenPlan PlanScreenedRelax(const Metric& metric, const Dataset& data) {
  RelaxScreenPlan plan;
  const ScreenSideStats ds = SideStatsOf(data);
  if (!UseScreening(metric, ds, ds) || !SingleQueryScreenWorthwhile(data)) {
    return plan;
  }
  plan.bound = metric.ScreenErrorBound(ds, ds, data.dim());
  if (!(plan.bound.rel < 1.0)) return plan;  // degenerate: run exact
  plan.inv_rel = (1.0 + 1e-12) / (1.0 - plan.bound.rel);
  plan.screen = true;
  return plan;
}

// The relax body of ScreenedRelaxArgFarthest over rows [begin, end) (at
// most kRelaxChunk): collects the rows the caller's skip bounds do not rule
// out, screens them when `plan` says so, and relaxes dist/assignment with
// exact distances for the rows the screen cannot certify. A row's screened
// value, skip threshold and rescue verdict are functions of the pair and
// its incoming dist alone (the kernels do not couple rows), so chunk
// alignment cannot move a decision. Kept out of line: inlined into
// RelaxArgFarthestRanges' range lambda, GCC 12 emits a screened loop about
// 25% slower (BM_GmmClustered/200000/256).
[[gnu::noinline]] void RelaxRows(const Metric& metric, const Dataset& data,
                                 size_t center, size_t begin, size_t end,
                                 const RelaxScreenPlan& plan,
                                 std::span<const double> skip_at,
                                 std::span<double> dist,
                                 std::span<size_t> assignment,
                                 size_t center_rank) {
  thread_local std::vector<uint32_t> rows;
  thread_local std::vector<float> screened;
  thread_local std::vector<float> thr;
  thread_local std::vector<uint32_t> rescue;
  thread_local std::vector<double> exact;
  rows.resize(end - begin);
  size_t live = 0;
  if (skip_at.empty()) {
    for (size_t i = begin; i < end; ++i) rows[live++] = static_cast<uint32_t>(i);
  } else {
    for (size_t i = begin; i < end; ++i) {
      rows[live] = static_cast<uint32_t>(i);
      live += !(dist[i] <= skip_at[assignment[i]]);
    }
  }
  std::span<const uint32_t> todo(rows.data(), live);
  if (plan.screen && live > 0) {
    screened.resize(live);
    thr.resize(live);
    metric.DistanceRowsManyF32(data, center, data, todo, screened.data());
    for (size_t t = 0; t < live; ++t) {
      thr[t] = ScreenSkipThreshold(dist[rows[t]], plan.bound.abs,
                                   plan.inv_rel);
    }
    rescue.clear();
    CollectScreenRescues(screened.data(), thr.data(), live, 0, rescue);
    for (uint32_t& r : rescue) r = rows[r];
    todo = rescue;
  }
  if (todo.empty()) return;
  exact.resize(todo.size());
  metric.DistanceRowsMany(data, center, data, todo, exact.data());
  for (size_t t = 0; t < todo.size(); ++t) {
    const size_t row = todo[t];
    if (exact[t] < dist[row]) {
      dist[row] = exact[t];
      if (!assignment.empty()) assignment[row] = center_rank;
    }
  }
}

}  // namespace

size_t ScreenedRelaxArgFarthest(const Metric& metric, const Dataset& data,
                                size_t center, std::span<double> dist,
                                std::span<size_t> assignment,
                                size_t center_rank,
                                std::span<const double> skip_at) {
  DIVERSE_CHECK_LT(center, data.size());
  if (!skip_at.empty()) DIVERSE_CHECK_EQ(assignment.size(), data.size());
  const RelaxScreenPlan plan = PlanScreenedRelax(metric, data);
  return RelaxArgFarthestRanges(
      data, dist, assignment, [&](size_t lo, size_t hi) {
        RelaxRows(metric, data, center, lo, hi, plan, skip_at, dist,
                  assignment, center_rank);
      });
}

}  // namespace diverse
