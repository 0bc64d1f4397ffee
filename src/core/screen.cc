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

// Single-query *relax* sweeps (GMM's per-center loop) still gate on per-row
// coordinate work: their fp32 pass re-reads a materialized buffer and the
// rescue band stays populated throughout the k-step trajectory, so below
// ~8 coords per row the screen only ties the exact sweep. The fused SMM
// sweeps (ScreenedArgClosest / ScreenedArgClosestWithin /
// ScreenedFirstWithin) carry no such gate: their skip path is one float
// compare against precomputed cutoffs, profitable at any dimension. The
// decision reads only dataset statistics — deterministic, and either
// verdict is bit-identical.
bool SingleQueryScreenWorthwhile(const Dataset& data) {
  size_t work = data.has_dense_rows() ? data.dim() : 0;
  const Dataset::SparseStats& ss = data.sparse_stats();
  if (ss.rows > 0) {
    work = std::max(work, static_cast<size_t>(2.0 * ss.AvgNnz()));
  }
  return work >= 8;
}

// Exact (unscreened) first-strict-argmin sweep — the fallback of the fused
// nearest-center sweeps.
size_t ExactArgClosest(const Metric& metric, const Point& query,
                       const Dataset& data, double* min_dist) {
  size_t n = data.size();
  thread_local std::vector<double> d;
  d.resize(n);
  metric.DistanceToMany(query, data, 0, std::span<double>(d.data(), n));
  size_t best = 0;
  double best_val = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < n; ++i) {
    if (d[i] < best_val) {
      best_val = d[i];
      best = i;
    }
  }
  if (min_dist != nullptr) *min_dist = best_val;
  return best;
}

// The parallel skeleton of every relax-and-argmax sweep: runs
// relax(lo, hi) over all rows of `data` — GrainRows ranges on the pool,
// each cut into blocks of at most `block` rows — and returns the smallest
// index maximizing the relaxed dist[]. Each range folds its first maximum
// block by block while the block is cache-warm; ranges combine in ascending
// order with a strict comparison, which reproduces a sequential first-max
// scan exactly at any thread count. relax(lo, hi) may touch only rows
// [lo, hi) of dist and assignment.
template <typename RelaxFn>
size_t RelaxArgFarthestRanges(const Dataset& data, std::span<double> dist,
                              std::span<size_t> assignment, size_t block,
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
      size_t e = hi - b > block ? b + block : hi;
      relax(b, e);
      for (; b < e; ++b) {
        if (dist[b] > local_val) {
          local_val = dist[b];
          local_best = b;
        }
      }
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

bool UseScreening(const Metric& metric) {
  return metric.policy().screening && metric.ScreeningProfitable();
}

size_t RelaxTilesAndArgFarthest(const Metric& metric, const Dataset& queries,
                                size_t q_begin, size_t nq, size_t rank_base,
                                const Dataset& data, std::span<double> dist,
                                std::span<size_t> assignment) {
  DIVERSE_CHECK_GE(nq, 1u);
  DIVERSE_CHECK_LE(q_begin + nq, queries.size());
  // Row block per tile: small enough that a kQChunk x kRowBlock tile stays
  // cache-resident (the relax pass re-reads every tile entry right after it
  // is written), large enough to amortize the per-block query transpose.
  constexpr size_t kRowBlock = 256;
  // Centers per tile: bounds the scratch to kQChunk * kRowBlock doubles
  // (128 KiB); within one DistanceTile call each data row is fetched once
  // for all kQChunk centers.
  constexpr size_t kQChunk = 64;
  return RelaxArgFarthestRanges(
      data, dist, assignment, kRowBlock, [&](size_t rb, size_t re) {
        thread_local std::vector<double> tile;
        size_t rn = re - rb;
        for (size_t qc = 0; qc < nq; qc += kQChunk) {
          size_t qn = std::min(kQChunk, nq - qc);
          tile.resize(qn * rn);
          metric.DistanceTile(queries, q_begin + qc, qn, data, rb, rn,
                              tile.data(), rn);
          // Relax centers in ascending rank order: identical to the
          // sequential one-center-at-a-time relax loop, including ties
          // (strictly smaller wins, earliest rank kept). Center-major order
          // streams the tile sequentially while the block's dist (and
          // assignment) slices stay cache-resident.
          for (size_t q = 0; q < qn; ++q) {
            const double* tile_row = tile.data() + q * rn;
            if (assignment.empty()) {
              for (size_t i = 0; i < rn; ++i) {
                if (tile_row[i] < dist[rb + i]) dist[rb + i] = tile_row[i];
              }
            } else {
              size_t rank = rank_base + qc + q;
              for (size_t i = 0; i < rn; ++i) {
                if (tile_row[i] < dist[rb + i]) {
                  dist[rb + i] = tile_row[i];
                  assignment[rb + i] = rank;
                }
              }
            }
          }
        }
      });
}

size_t UnfusedScreenedRelaxTile(const Metric& metric, const Dataset& queries,
                                size_t q_begin, size_t nq, size_t rank_base,
                                const Dataset& data, size_t r_begin,
                                size_t nr, const ScreenBound& bound,
                                std::span<double> dist,
                                std::span<size_t> assignment) {
  constexpr size_t kRowBlock = 256;
  constexpr size_t kQChunk = 64;
  const double inv_rel = (1.0 + 1e-12) / (1.0 - bound.rel);
  size_t exact_evals = 0;
  thread_local std::vector<float> tile;
  thread_local std::vector<float> thr;
  thread_local std::vector<uint32_t> rescue;
  thread_local std::vector<double> rescued_d;
  for (size_t rb = 0; rb < nr; rb += kRowBlock) {
    size_t rn = std::min(kRowBlock, nr - rb);
    size_t row0 = r_begin + rb;
    thr.resize(rn);
    for (size_t i = 0; i < rn; ++i) {
      thr[i] = ScreenSkipThreshold(dist[row0 + i], bound.abs, inv_rel);
    }
    for (size_t qc = 0; qc < nq; qc += kQChunk) {
      size_t qn = std::min(kQChunk, nq - qc);
      tile.resize(qn * rn);
      metric.DistanceTileF32(queries, q_begin + qc, qn, data, row0, rn,
                             tile.data(), rn);
      for (size_t q = 0; q < qn; ++q) {
        const float* tile_row = tile.data() + q * rn;
        rescue.clear();
        CollectScreenRescues(tile_row, thr.data(), rn,
                             static_cast<uint32_t>(row0), rescue);
        if (rescue.empty()) continue;
        rescued_d.resize(rescue.size());
        metric.DistanceRowsMany(queries, q_begin + qc + q, data, rescue,
                                rescued_d.data());
        exact_evals += rescue.size();
        size_t rank = rank_base + qc + q;
        for (size_t t = 0; t < rescue.size(); ++t) {
          size_t row = rescue[t];
          double d = rescued_d[t];
          if (d < dist[row]) {
            dist[row] = d;
            if (!assignment.empty()) assignment[row] = rank;
            thr[row - row0] = ScreenSkipThreshold(d, bound.abs, inv_rel);
          }
        }
      }
    }
  }
  return exact_evals;
}

size_t ScreenedRelaxTilesAndArgFarthest(const Metric& metric,
                                        const Dataset& queries, size_t q_begin,
                                        size_t nq, size_t rank_base,
                                        const Dataset& data,
                                        std::span<double> dist,
                                        std::span<size_t> assignment) {
  const ScreenSideStats qs = SideStatsOf(queries);
  const ScreenSideStats ds = SideStatsOf(data);
  if (UseScreening(metric) && metric.RelaxTileScreeningProfitableFor(qs, ds)) {
    // One bound for the whole sweep. A degenerate bound (rel >= 1 —
    // possible only at astronomical term counts) would invert the
    // skip-threshold transform, so such sweeps run exact instead.
    const ScreenBound bound = metric.ScreenErrorBound(qs, ds, data.dim());
    if (bound.rel < 1.0) {
      DIVERSE_CHECK_GE(nq, 1u);
      DIVERSE_CHECK_LE(q_begin + nq, queries.size());
      // The whole screen + relax + rescue loop for a row range runs inside
      // the metric's fused kernel — no intermediate fp32 tile for the dense
      // metrics, cosine-space thresholds for all-sparse cosine tiles, and
      // the unfused materialize-then-collect loop otherwise.
      return RelaxArgFarthestRanges(
          data, dist, assignment, SIZE_MAX, [&](size_t lo, size_t hi) {
            metric.ScreenedRelaxTile(queries, q_begin, nq, rank_base, data,
                                     lo, hi - lo, bound, dist, assignment);
          });
    }
  }
  return RelaxTilesAndArgFarthest(metric, queries, q_begin, nq, rank_base,
                                  data, dist, assignment);
}

RelaxScreenPlan PlanScreenedRelax(const Metric& metric, const Dataset& queries,
                                  const Dataset& data) {
  RelaxScreenPlan plan;
  const ScreenSideStats qs = SideStatsOf(queries);
  const ScreenSideStats ds = SideStatsOf(data);
  if (!UseScreening(metric) || !SingleQueryScreenWorthwhile(data) ||
      !metric.ScreeningProfitableFor(qs, ds)) {
    return plan;
  }
  plan.bound = metric.ScreenErrorBound(qs, ds, data.dim());
  if (!(plan.bound.rel < 1.0)) return plan;  // degenerate: run exact
  plan.inv_rel = (1.0 + 1e-12) / (1.0 - plan.bound.rel);
  plan.screen = true;
  return plan;
}

size_t ScreenedRelaxRange(const Metric& metric, const Dataset& queries,
                          size_t q_index, const Dataset& data, size_t begin,
                          size_t count, const RelaxScreenPlan& plan,
                          std::span<double> dist, std::span<size_t> assignment,
                          size_t center_rank) {
  DIVERSE_CHECK_LT(q_index, queries.size());
  DIVERSE_CHECK_LE(begin + count, data.size());
  DIVERSE_CHECK_EQ(dist.size(), data.size());
  if (!assignment.empty()) DIVERSE_CHECK_EQ(assignment.size(), data.size());
  if (count == 0) return 0;
  const Point query = queries.point(q_index);
  size_t end = begin + count;
  if (!plan.screen) {
    // Exact per-pair relax through the batched kernel, chunked to bound
    // scratch.
    thread_local std::vector<double> dbuf;
    for (size_t c0 = begin; c0 < end; c0 += kRelaxChunk) {
      size_t cn = std::min(kRelaxChunk, end - c0);
      dbuf.resize(cn);
      metric.DistanceToMany(query, data, c0,
                            std::span<double>(dbuf.data(), cn));
      for (size_t i = 0; i < cn; ++i) {
        if (dbuf[i] < dist[c0 + i]) {
          dist[c0 + i] = dbuf[i];
          if (!assignment.empty()) assignment[c0 + i] = center_rank;
        }
      }
    }
    return count;
  }
  // Per-row fp32 values, skip thresholds, and rescue verdicts are functions
  // of the pair and the row's incoming dist alone (the per-row kernels do
  // not couple rows), so chunk alignment cannot move a decision: any row
  // range relaxes exactly as it would inside a full sweep.
  thread_local std::vector<float> buf;
  thread_local std::vector<float> thr;
  thread_local std::vector<uint32_t> rescue;
  thread_local std::vector<double> rescued_d;
  size_t exact_evals = 0;
  for (size_t c0 = begin; c0 < end; c0 += kRelaxChunk) {
    size_t cn = std::min(kRelaxChunk, end - c0);
    buf.resize(cn);
    thr.resize(cn);
    metric.DistanceToManyF32(query, data, c0,
                             std::span<float>(buf.data(), cn));
    for (size_t i = 0; i < cn; ++i) {
      thr[i] = ScreenSkipThreshold(dist[c0 + i], plan.bound.abs, plan.inv_rel);
    }
    rescue.clear();
    CollectScreenRescues(buf.data(), thr.data(), cn,
                         static_cast<uint32_t>(c0), rescue);
    if (!rescue.empty()) {
      rescued_d.resize(rescue.size());
      metric.DistanceRowsMany(queries, q_index, data, rescue,
                              rescued_d.data());
      exact_evals += rescue.size();
      for (size_t t = 0; t < rescue.size(); ++t) {
        size_t row = rescue[t];
        if (rescued_d[t] < dist[row]) {
          dist[row] = rescued_d[t];
          if (!assignment.empty()) assignment[row] = center_rank;
        }
      }
    }
  }
  return exact_evals;
}

size_t ScreenedRelaxArgFarthest(const Metric& metric, const Dataset& queries,
                                size_t q_index, const Dataset& data,
                                std::span<double> dist,
                                std::span<size_t> assignment,
                                size_t center_rank) {
  DIVERSE_CHECK_LT(q_index, queries.size());
  const RelaxScreenPlan plan = PlanScreenedRelax(metric, queries, data);
  return RelaxArgFarthestRanges(
      data, dist, assignment, kRelaxChunk, [&](size_t lo, size_t hi) {
        ScreenedRelaxRange(metric, queries, q_index, data, lo, hi - lo, plan,
                           dist, assignment, center_rank);
      });
}

namespace {

// The fused argmin + coverage sweep under an already-resolved bound: shared
// by the one-shot overload (per-query bound) and the persistent-context
// overload (cached dataset-worst-case bound). `beyond` is the precomputed
// certify-beyond cutoff at the caller's cover threshold.
ScreenedNearest ScreenedArgClosestWithinBody(const Metric& metric,
                                             const Point& query,
                                             const Dataset& data,
                                             const ScreenBound& bound,
                                             double inv_rel, float beyond) {
  size_t n = data.size();
  ScreenedNearest out;
  const float flt_max = std::numeric_limits<float>::max();
  thread_local std::vector<float> s;
  s.resize(n);
  metric.DistanceToManyF32(query, data, 0, std::span<float>(s.data(), n));
  // Smallest finite screened value; non-finite values (overflowed fp32
  // accumulators) certify nothing and keep every certificate off.
  float smin = std::numeric_limits<float>::infinity();
  bool any_nonfinite = false;
  for (size_t i = 0; i < n; ++i) {
    float v = s[i];
    if (v >= -flt_max && v <= flt_max) {
      smin = std::min(smin, v);
    } else {
      any_nonfinite = true;
    }
  }
  // Coverage certificate: when every row's certified lower bound clears the
  // cover threshold, the caller's coverage decision is settled with zero
  // exact evaluations (the skip-threshold transform is exactly the
  // "certify exact > t" test, applied with t = cover_threshold).
  if (!any_nonfinite && smin > beyond) {
    out.beyond = true;
    return out;
  }
  // Argmin: every index whose certified lower bound is at or below the
  // smallest certified upper bound could be (or tie) the minimum; the true
  // argmin is always among them, and no skipped index can match the
  // minimum (its lower bound strictly exceeds it), so the first-strict-min
  // scan over the candidates in ascending order picks the same index as
  // the exact sweep. Both transforms are monotone in the screened value,
  // so the candidate test is one float compare against a precomputed
  // cutoff.
  double min_upper = ScreenedUpper(smin, bound);
  float candidate_cutoff =
      NextUpNonNegativeF32(static_cast<float>((min_upper + bound.abs) *
                                              inv_rel));
  size_t best = n;
  double best_val = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < n; ++i) {
    float v = s[i];
    bool finite = v >= -flt_max && v <= flt_max;
    if (finite && v > candidate_cutoff) continue;
    double d = 0.0;
    metric.DistanceToMany(query, data, i, std::span<double>(&d, 1));
    if (d < best_val) {
      best_val = d;
      best = i;
    }
  }
  DIVERSE_CHECK_LT(best, n);
  out.index = best;
  out.dist = best_val;
  return out;
}

// The fused first-within loop under already-resolved cutoffs: shared by
// the one-shot and persistent-context overloads of ScreenedFirstWithin.
size_t ScreenedFirstWithinBody(const Metric& metric, const Point& query,
                               const Dataset& data, double threshold,
                               float within, float beyond) {
  size_t n = data.size();
  constexpr size_t kChunk = 16;
  const float flt_max = std::numeric_limits<float>::max();
  float buf[kChunk];
  for (size_t b = 0; b < n; b += kChunk) {
    size_t bn = std::min(kChunk, n - b);
    metric.DistanceToManyF32(query, data, b, std::span<float>(buf, bn));
    for (size_t i = 0; i < bn; ++i) {
      float v = buf[i];
      if (v >= -flt_max && v <= within) return b + i;
      if (v > beyond && v <= flt_max) continue;
      double d = 0.0;
      metric.DistanceToMany(query, data, b + i, std::span<double>(&d, 1));
      if (d <= threshold) return b + i;
    }
  }
  return n;
}

}  // namespace

ScreenedNearest ScreenedArgClosestWithin(const Metric& metric,
                                         const Point& query,
                                         const Dataset& data,
                                         double cover_threshold) {
  size_t n = data.size();
  DIVERSE_CHECK_GE(n, 1u);
  DIVERSE_CHECK_GE(cover_threshold, 0.0);
  const ScreenSideStats qs = SideStatsOf(query);
  const ScreenSideStats ds = SideStatsOf(data);
  if (UseScreening(metric) && metric.ScreeningProfitableFor(qs, ds)) {
    const ScreenBound bound = metric.ScreenErrorBound(qs, ds, data.dim());
    if (bound.rel < 1.0) {
      const double inv_rel = (1.0 + 1e-12) / (1.0 - bound.rel);
      const float beyond = ScreenSkipThreshold(cover_threshold, bound.abs,
                                               inv_rel);
      return ScreenedArgClosestWithinBody(metric, query, data, bound,
                                          inv_rel, beyond);
    }
  }
  ScreenedNearest out;
  out.index = ExactArgClosest(metric, query, data, &out.dist);
  return out;
}

// True when the context's cached dataset-worst-case bound covers `query`:
// the query's side statistics are dominated by the data's own extremes, so
// the cached bound is at least as wide as the per-call bound (see the
// header's soundness note).
bool ScreenContextCovers(const PersistentScreenContext& ctx,
                         const Point& query) {
  if (query.is_sparse()) {
    if (query.sparse_values().size() > ctx.max_nnz_) return false;
  } else if (!ctx.has_dense_) {
    return false;
  }
  double qn = query.norm();
  return qn == 0.0 || qn >= ctx.min_positive_norm_;
}

// Rebuilds the context's cached bound and cutoffs when the (data stats,
// threshold) key moved; counts a hit otherwise. Returns false when the
// cached bound is degenerate (rel >= 1) and callers must take the one-shot
// path.
bool RefreshScreenContext(PersistentScreenContext& ctx, const Metric& metric,
                          const Dataset& data, double threshold) {
  const ScreenSideStats ds = SideStatsOf(data);
  bool same = ctx.valid_ && ctx.dim_ == data.dim() &&
              ctx.has_dense_ == ds.has_dense &&
              ctx.max_nnz_ == ds.max_sparse_nnz &&
              ctx.min_positive_norm_ == ds.min_positive_norm &&
              ctx.threshold_ == threshold;
  if (same) {
    ++ctx.hits_;
  } else {
    ctx.dim_ = data.dim();
    ctx.has_dense_ = ds.has_dense;
    ctx.max_nnz_ = ds.max_sparse_nnz;
    ctx.min_positive_norm_ = ds.min_positive_norm;
    ctx.threshold_ = threshold;
    ctx.bound_ = metric.ScreenErrorBound(ds, ds, data.dim());
    if (ctx.bound_.rel < 1.0) {
      ctx.inv_rel_ = (1.0 + 1e-12) / (1.0 - ctx.bound_.rel);
      ctx.beyond_ = ScreenSkipThreshold(threshold, ctx.bound_.abs,
                                        ctx.inv_rel_);
      ctx.within_ = ScreenCertifiedBelow(threshold, ctx.bound_);
    }
    ctx.valid_ = true;
    ++ctx.rebuilds_;
  }
  return ctx.bound_.rel < 1.0;
}

ScreenedNearest ScreenedArgClosestWithin(const Metric& metric,
                                         const Point& query,
                                         const Dataset& data,
                                         double cover_threshold,
                                         PersistentScreenContext* ctx) {
  if (ctx == nullptr) {
    return ScreenedArgClosestWithin(metric, query, data, cover_threshold);
  }
  size_t n = data.size();
  DIVERSE_CHECK_GE(n, 1u);
  DIVERSE_CHECK_GE(cover_threshold, 0.0);
  if (!UseScreening(metric) ||
      !metric.ScreeningProfitableFor(SideStatsOf(query), SideStatsOf(data))) {
    ScreenedNearest out;
    out.index = ExactArgClosest(metric, query, data, &out.dist);
    return out;
  }
  if (!RefreshScreenContext(*ctx, metric, data, cover_threshold) ||
      !ScreenContextCovers(*ctx, query)) {
    return ScreenedArgClosestWithin(metric, query, data, cover_threshold);
  }
  return ScreenedArgClosestWithinBody(metric, query, data, ctx->bound_,
                                      ctx->inv_rel_, ctx->beyond_);
}

size_t ScreenedArgClosest(const Metric& metric, const Point& query,
                          const Dataset& data, double* min_dist) {
  // +inf cover threshold: the coverage certificate can never fire, so this
  // is the plain fused screened argmin.
  ScreenedNearest r = ScreenedArgClosestWithin(
      metric, query, data, std::numeric_limits<double>::infinity());
  if (min_dist != nullptr) *min_dist = r.dist;
  return r.index;
}

size_t ScreenedFirstWithin(const Metric& metric, const Point& query,
                           const Dataset& data, double threshold) {
  size_t n = data.size();
  const ScreenSideStats qs = SideStatsOf(query);
  const ScreenSideStats ds = SideStatsOf(data);
  if (UseScreening(metric) && metric.ScreeningProfitableFor(qs, ds)) {
    if (threshold < 0.0) return n;  // distances are nonnegative; none fits
    const ScreenBound bound = metric.ScreenErrorBound(qs, ds, data.dim());
    if (bound.rel < 1.0) {
      // Two precomputed float cutoffs replace the per-row double bound
      // transforms: s <= within certifies d < threshold (qualify), a finite
      // s > beyond certifies d > threshold (skip), and only band hits pay
      // an exact evaluation. Chunked so a merge-heavy scan keeps its early
      // exit.
      const double inv_rel = (1.0 + 1e-12) / (1.0 - bound.rel);
      const float within = ScreenCertifiedBelow(threshold, bound);
      const float beyond = ScreenSkipThreshold(threshold, bound.abs, inv_rel);
      return ScreenedFirstWithinBody(metric, query, data, threshold, within,
                                     beyond);
    }
  }
  constexpr size_t kChunk = 16;
  double buf[kChunk];
  for (size_t b = 0; b < n; b += kChunk) {
    size_t bn = std::min(kChunk, n - b);
    metric.DistanceToMany(query, data, b, std::span<double>(buf, bn));
    for (size_t i = 0; i < bn; ++i) {
      if (buf[i] <= threshold) return b + i;
    }
  }
  return n;
}

size_t ScreenedFirstWithin(const Metric& metric, const Point& query,
                           const Dataset& data, double threshold,
                           PersistentScreenContext* ctx) {
  if (ctx == nullptr) {
    return ScreenedFirstWithin(metric, query, data, threshold);
  }
  size_t n = data.size();
  if (n == 0) return 0;
  if (!UseScreening(metric) ||
      !metric.ScreeningProfitableFor(SideStatsOf(query), SideStatsOf(data)) ||
      threshold < 0.0) {
    return ScreenedFirstWithin(metric, query, data, threshold);
  }
  if (!RefreshScreenContext(*ctx, metric, data, threshold) ||
      !ScreenContextCovers(*ctx, query)) {
    return ScreenedFirstWithin(metric, query, data, threshold);
  }
  return ScreenedFirstWithinBody(metric, query, data, threshold,
                                 ctx->within_, ctx->beyond_);
}

}  // namespace diverse
