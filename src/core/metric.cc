#include "core/metric.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <type_traits>
#include <vector>

#include "core/dataset.h"
#include "core/screen.h"
#include "core/sparse_kernels.h"
#include "core/vector_kernels.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace diverse {

namespace {

using kernels::VecView;

// out[i] = row_distance(data.row(begin + i)) for all i, in parallel.
template <typename RowFn>
void BatchMap(const Dataset& data, size_t begin, std::span<double> out,
              const RowFn& row_distance) {
  DIVERSE_CHECK_LE(begin + out.size(), data.size());
  GlobalThreadPool().ParallelForRanges(
      out.size(), GrainRows(data), [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) {
          out[i] = row_distance(data.row(begin + i));
        }
      });
}

VecView QueryView(const Point& query, const Dataset& data) {
  if (!data.empty()) DIVERSE_CHECK_EQ(query.dim(), data.dim());
  return query.View();
}

// A sparse query scattered into the calling thread's dim-sized slot table
// (slot[idx] = position + 1, zero elsewhere) for the object's lifetime; the
// destructor zeroes the touched slots, so the table is all zero between
// uses. One table per thread serves every slot path below, so at most one
// QuerySlots may live on a thread at a time. Caller guarantees dim <=
// kDirectIndexMaxDim.
class QuerySlots {
 public:
  QuerySlots(const VecView& q, size_t dim) : q_(q) {
    thread_local std::vector<uint32_t> table;
    if (table.size() < dim) table.resize(dim);
    slot_ = table.data();
    for (size_t p = 0; p < q_.nnz; ++p) {
      slot_[q_.indices[p]] = static_cast<uint32_t>(p + 1);
    }
  }
  ~QuerySlots() {
    for (size_t p = 0; p < q_.nnz; ++p) slot_[q_.indices[p]] = 0;
  }
  QuerySlots(const QuerySlots&) = delete;
  QuerySlots& operator=(const QuerySlots&) = delete;

  const uint32_t* table() const { return slot_; }

 private:
  VecView q_;
  uint32_t* slot_;
};

// BatchMap of one sparse query under an intersection kernel (dot,
// Jaccard). Each range scatters the query (QuerySlots) and scores every
// sparse row by walking only the row's own index list (K::SlotPair);
// dense rows keep K::Pair.
//
// One range's walk is its own cache-line-aligned function: nearly all of a
// sparse one-query sweep's time is its inner loop, whose speed depends on
// where the loop sits relative to 64-byte lines (a hot instruction that
// straddles a line cost ~20% on the one-pass SMM text workload). The
// alignment fixes that placement, so code size changes elsewhere in the
// library do not move it.
template <typename K>
__attribute__((noinline, aligned(64))) void SlotRows(
    const VecView& q, const Dataset& data, size_t begin, size_t lo, size_t hi,
    double* out) {
  const QuerySlots slots(q, data.dim());
  for (size_t i = lo; i < hi; ++i) {
    VecView row = data.row(begin + i);
    out[i] = row.is_sparse() ? K::SlotPair(slots.table(), q, row)
                             : K::Pair(row, q);
  }
}

// SlotRows over the listed rows instead of a contiguous range: the
// DistanceRowsMany path of a sparse query under an intersection kernel.
template <typename K>
void SlotListedRows(const VecView& q, const Dataset& data,
                    std::span<const uint32_t> rows, double* out) {
  const QuerySlots slots(q, data.dim());
  for (size_t t = 0; t < rows.size(); ++t) {
    VecView row = data.row(rows[t]);
    out[t] = row.is_sparse() ? K::SlotPair(slots.table(), q, row)
                             : K::Pair(row, q);
  }
}

// The CoveredPrefix path of a sparse query under an intersection kernel:
// rows from `begin` on, one at a time on the calling thread, up to the
// first row beyond `radius` or `limit`. Sparse rows are decided by
// K::SlotRadius, dense rows by K::Pair. Aligned for the reason SlotRows
// is; inlined into its caller, the walk ran ~25% slower.
template <typename K>
__attribute__((noinline, aligned(64))) size_t SlotCoveredRun(
    const VecView& q, const Dataset& data, size_t begin, size_t limit,
    double radius) {
  const QuerySlots slots(q, data.dim());
  const typename K::SlotRadius within(radius);
  size_t i = begin;
  for (; i < limit; ++i) {
    VecView row = data.row(i);
    const bool covered = row.is_sparse() ? within(slots.table(), q, row)
                                         : K::Pair(row, q) <= radius;
    if (!covered) break;
  }
  return i - begin;
}

template <typename K>
void SlotBatchMap(const VecView& q, const Dataset& data, size_t begin,
                  std::span<double> out) {
  DIVERSE_CHECK_LE(begin + out.size(), data.size());
  if (out.empty()) return;
  GlobalThreadPool().ParallelForRanges(
      out.size(), GrainRows(data), [&](size_t lo, size_t hi) {
        SlotRows<K>(q, data, begin, lo, hi, out.data());
      });
}

// --- Blocked many-vs-many tiles ------------------------------------------

void CheckTileArgs(const Dataset& queries, size_t q_begin, size_t nq,
                   const Dataset& data, size_t r_begin, size_t nr,
                   size_t out_stride) {
  DIVERSE_CHECK_LE(q_begin + nq, queries.size());
  DIVERSE_CHECK_LE(r_begin + nr, data.size());
  DIVERSE_CHECK_GE(out_stride, nr);
  if (nq > 0 && nr > 0) DIVERSE_CHECK_EQ(queries.dim(), data.dim());
}

// --- Sparse tile strategy selection ---------------------------------------
// The sparse engine decodes a block of sparse query lanes once
// (core/sparse_kernels.h) and streams every sparse data row a single time
// against all lanes. Whether that beats the per-pair scalar merge depends on
// the data layout, not the operation, so the decisions below read only the
// block content and the Dataset's sparse-row statistics — deterministic
// inputs, so tiled results never depend on scheduling. Either choice is
// bit-identical to the scalar merge; the strategy only moves cost.

// Minimum sparse data rows per tile for the block decode to amortize.
constexpr size_t kSparseEngineMinRows = 4;
// Largest ambient dimension for the direct-index slot table (the table is
// cleared per query block; beyond this the O(dim) clear and its cache
// footprint outweigh the O(1) probes).
constexpr size_t kDirectIndexMaxDim = size_t{1} << 14;

// Dimension to build the direct-index mirror for, or 0 for merge-walk
// probing. Only intersection kernels (dot, Jaccard) probe; union-walk
// kernels (Euclidean, L1) stream both index lists and never look up.
size_t DirectIndexDim(const Dataset& data, size_t nr) {
  size_t dim = data.dim();
  if (dim == 0 || dim > kDirectIndexMaxDim) return 0;
  // Amortize the per-block O(dim) clear over the rows that will probe it.
  if (dim > 64 * nr) return 0;
  return dim;
}

// Union-walk profitability for Euclidean/L1 sparse blocks. The engine
// streams (U + nnz_r) merged positions per row with a branch-free
// kTileLanes-wide accumulate each; the per-pair merge walks
// (total_lane_nnz + sparse_lanes * nnz_r) positions one lane at a time with
// data-dependent branching. Measured on the BM_SparseTileEuclidean*
// workloads, one branch-free 8-lane position costs about 0.7x a branchy
// single-lane merge position (the merge's unpredictable three-way branch
// dominates, not the arithmetic), giving the 8x admit factor below. Blocks
// whose lanes share support (text corpora — Zipf vocabularies overlap
// heavily) pass with a wide margin; only blocks whose widened union would
// do nearly an order of magnitude more positions than the per-pair merges
// fall back (e.g. a lone sparse lane among dense ones against short rows).
bool UnionWalkProfitable(size_t union_size, size_t total_lane_nnz,
                         size_t sparse_lanes, double avg_row_nnz) {
  double engine = static_cast<double>(kernels::kTileLanes) *
                  (static_cast<double>(union_size) + avg_row_nnz);
  double per_pair = static_cast<double>(total_lane_nnz) +
                    static_cast<double>(sparse_lanes) * avg_row_nnz;
  return engine <= 8.0 * per_pair;
}

// --- Sparse query-block decode cache --------------------------------------
// PackSparseQueryLanes re-walks a query block's CSR lanes (and rebuilds the
// direct-index slot table) on every call, but the decoded scratch is
// read-only while data rows stream against it — so a thread that decodes
// the same block twice in a row does pure rework. That happens constantly
// in tiled sweeps (one query chunk against many row blocks) and in the
// chunked flat sweeps (one center's rescues against many row chunks). Each
// thread-local scratch slot therefore remembers what it holds: the owning
// dataset's content stamp (globally unique per mutation, so equal stamps
// imply identical content — see Dataset::content_stamp), the lane block's
// absolute row span, the sub-block index, and the direct-index dimension
// the decode was built for. A matching key skips the decode outright.
// Process-global relaxed counters prove the reuse in tests.

struct SparseDecodeKey {
  uint64_t stamp = 0;      // Dataset::content_stamp() of the query side
  size_t block_begin = 0;  // absolute first row of the lane block
  size_t block_n = 0;      // lanes in the block (its sparse subset derives)
  size_t sub = 0;          // sub-block index within the lane block
  size_t direct_dim = 0;   // direct-index dim the decode was built for
  friend bool operator==(const SparseDecodeKey&,
                         const SparseDecodeKey&) = default;
};

// Monotonic telemetry only (tests assert deltas after joining all workers)
// — relaxed ordering is sufficient because no other memory is published
// through these counters. The decode caches themselves are thread_local.
std::atomic<uint64_t>  // lint: allow(no-mutable-globals-in-core) test telemetry
    g_sparse_decode_count{0};
std::atomic<uint64_t>  // lint: allow(no-mutable-globals-in-core) test telemetry
    g_sparse_decode_hits{0};

// True (and counted as a hit) when `have` already holds `want`'s decode;
// otherwise records `want` into `have` and tells the caller to decode.
// Stamp 0 marks a never-mutated dataset (necessarily empty — no sparse
// lanes to decode) and never caches.
bool SparseDecodeCached(const SparseDecodeKey& want, SparseDecodeKey& have) {
  if (want.stamp != 0 && have == want) {
    g_sparse_decode_hits.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  g_sparse_decode_count.fetch_add(1, std::memory_order_relaxed);
  have = want;
  return false;
}

// The tile engine of the built-in metrics, parameterized on the kernel
// trait K and the output scalar: Out = double is the exact engine (8 query
// lanes, the bit-identical lane kernels), Out = float the fp32 screening
// engine (16 lanes, twice the width for the same vector registers). Keeping
// ONE engine keeps the strategy gates — dense/sparse lane partition, the
// sparse-engine admission (kSparseEngineMinRows), DirectIndexDim, and the
// union-walk profitability check — in lockstep by construction, which the
// screened-value determinism contract depends on (either gate verdict is
// value-identical; the gates only move cost).
//
// Queries are processed in lane blocks of TileTraits<Out>::kLanes, each
// split by representation:
//   * dense lanes are transposed once (TileTraits<Out>::Pack) and every
//     dense data row is streamed through the multi-query lane kernel
//     (K::Lanes) — only when K::kDenseLanes (Jaccard has no dense lane
//     kernel);
//   * sparse lanes are decoded into per-thread SparseTileScratch blocks of
//     kernels::kTileLanes (one sub-block for the exact engine, up to two
//     for the 16-lane fp32 engine) and every sparse data row is streamed
//     through the sparse lane kernel (K::SparseLanes);
//   * mixed pairs (dense lane x sparse row and vice versa) always run the
//     per-pair kernel (K::Pair / K::PairF32), which is already O(nnz).
// Each data row is fetched a single time and handed to every group.
// K::Finish turns a block of lane accumulators into the metric's distances
// in place; it runs for both the dense and the sparse group, over that
// group's compacted views. K::kUnionWalk marks the union-walk kernels
// (Euclidean/L1), which are gated by UnionWalkProfitable and never build
// the direct index.

template <typename Out>
struct TileTraits;

template <>
struct TileTraits<double> {
  static constexpr size_t kLanes = kernels::kTileLanes;
  static void Pack(const VecView* queries, size_t nq, size_t dim, float* qt) {
    kernels::PackQueryLanes(queries, nq, dim, qt);
  }
};

template <>
struct TileTraits<float> {
  static constexpr size_t kLanes = kernels::kTileLanesF32;
  static void Pack(const VecView* queries, size_t nq, size_t dim, float* qt) {
    kernels::PackQueryLanesF32(queries, nq, dim, qt);
  }
};

template <typename K, typename Out>
void BatchTile(const Dataset& queries, size_t q_begin, size_t nq,
               const Dataset& data, size_t r_begin, size_t nr, Out* out,
               size_t out_stride) {
  CheckTileArgs(queries, q_begin, nq, data, r_begin, nr, out_stride);
  // Empty tiles are legal no-ops; bail before packing query lanes (the
  // lane pack walks data.dim() coordinates of each query, which is only
  // validated against the query dimension for nonempty tiles).
  if (nq == 0 || nr == 0) return;
  auto pair = [](const VecView& q, const VecView& row) -> Out {
    if constexpr (std::is_same_v<Out, float>) {
      return K::PairF32(row, q);
    } else {
      return K::Pair(row, q);
    }
  };
  size_t dim = data.dim();
  constexpr size_t kQBlock = TileTraits<Out>::kLanes;
  constexpr size_t kSub = kernels::kTileLanes;  // sparse decode width
  constexpr size_t kMaxSub = (kQBlock + kSub - 1) / kSub;
  thread_local std::vector<float> qt;  // transposed dense lane block
  thread_local kernels::SparseTileScratch sparse_ws[kMaxSub];
  thread_local SparseDecodeKey sparse_key[kMaxSub];
  VecView dv[kQBlock];  // compacted dense lane views
  VecView sv[kQBlock];  // compacted sparse lane views
  size_t dense_id[kQBlock];
  size_t sparse_id[kQBlock];
  Out lane_out[kQBlock];
  const Dataset::SparseStats& stats = data.sparse_stats();
  for (size_t q0 = 0; q0 < nq; q0 += kQBlock) {
    size_t qn = std::min(kQBlock, nq - q0);
    size_t dn = 0, sn = 0;
    for (size_t lane = 0; lane < qn; ++lane) {
      VecView v = queries.row(q_begin + q0 + lane);
      if (v.is_sparse()) {
        sv[sn] = v;
        sparse_id[sn++] = lane;
      } else {
        dv[dn] = v;
        dense_id[dn++] = lane;
      }
    }
    bool dense_block = K::kDenseLanes && dim > 0 && dn > 0;
    if (dense_block) {
      qt.resize(dim * kQBlock);
      TileTraits<Out>::Pack(dv, dn, dim, qt.data());
    }
    bool sparse_block = sn > 0 && stats.rows > 0 && nr >= kSparseEngineMinRows;
    size_t num_sub = (sn + kSub - 1) / kSub;
    if (sparse_block) {
      size_t direct_dim = K::kUnionWalk ? 0 : DirectIndexDim(data, nr);
      for (size_t sub = 0; sub < num_sub; ++sub) {
        size_t sub_n = std::min(kSub, sn - sub * kSub);
        SparseDecodeKey want{queries.content_stamp(), q_begin + q0, qn, sub,
                             direct_dim};
        if (!SparseDecodeCached(want, sparse_key[sub])) {
          kernels::PackSparseQueryLanes(sv + sub * kSub, sub_n, direct_dim,
                                        sparse_ws[sub]);
        }
        if (K::kUnionWalk &&
            !UnionWalkProfitable(sparse_ws[sub].indices.size(),
                                 sparse_ws[sub].total_nnz, sub_n,
                                 stats.AvgNnz())) {
          sparse_block = false;
          break;
        }
      }
    }
    for (size_t r = 0; r < nr; ++r) {
      VecView row = data.row(r_begin + r);
      if (!row.is_sparse()) {
        if (dense_block) {
          K::Lanes(qt.data(), row.values, dim, lane_out);
          K::Finish(lane_out, dv, row, dn);
          for (size_t i = 0; i < dn; ++i) {
            out[(q0 + dense_id[i]) * out_stride + r] = lane_out[i];
          }
        } else {
          for (size_t i = 0; i < dn; ++i) {
            out[(q0 + dense_id[i]) * out_stride + r] = pair(dv[i], row);
          }
        }
        for (size_t i = 0; i < sn; ++i) {
          out[(q0 + sparse_id[i]) * out_stride + r] = pair(sv[i], row);
        }
      } else {
        for (size_t i = 0; i < dn; ++i) {
          out[(q0 + dense_id[i]) * out_stride + r] = pair(dv[i], row);
        }
        if (sparse_block) {
          for (size_t sub = 0; sub < num_sub; ++sub) {
            size_t sub_n = std::min(kSub, sn - sub * kSub);
            K::SparseLanes(sparse_ws[sub], row, lane_out);
            K::Finish(lane_out, sv + sub * kSub, row, sub_n);
            for (size_t i = 0; i < sub_n; ++i) {
              out[(q0 + sparse_id[sub * kSub + i]) * out_stride + r] =
                  lane_out[i];
            }
          }
        } else {
          for (size_t i = 0; i < sn; ++i) {
            out[(q0 + sparse_id[i]) * out_stride + r] = pair(sv[i], row);
          }
        }
      }
    }
  }
}

// --- Certified screening bounds -------------------------------------------
// u = 2^-24, the fp32 unit roundoff. A sum of m nonnegative fp32 terms,
// each produced from exact float inputs by at most two rounded ops,
// satisfies |s32 - s| <= gamma(m+2) * s with gamma(n) = n*u / (1 - n*u),
// for ANY summation order (the sequential chain is the worst case, so the
// bound also covers the 8/16-accumulator orders the kernels actually use)
// — plus a per-op absolute floor of 2^-150 in the fp32 underflow regime.
// The exact path's own double-accumulation error is gamma_53-sized and
// vanishes inside the 2x safety factors below. Full derivations live in the
// README's "Mixed-precision screening" section and are property-tested
// against sampled |screened - exact| gaps in tests/screen_test.cc.
//
// Index pruning slack (IndexSlack): greedy matching's cluster-pair bound
// (core/sequential.cc) chains EXACT-double kernel values through the
// triangle inequality: d(i, c_a) + d(c_a, c_b) + d(c_b, j) upper-bounds
// d(i, j). The exact kernels round, so each computed value carries the
// double analog of the fp32 screening band — the same derivations with
// u = 2^-52 and the same >=2x safety factors. The bound chains at most
// three computed values and widens their sum by this band before any
// comparison (CertifiedPairBound): sound for every chain it forms, and
// still orders of magnitude below the distances the scan discriminates
// on.

constexpr double kF32Eps = 5.9604644775390625e-08;  // 2^-24
constexpr double kDblEps = 2.220446049250313e-16;   // 2^-52

// Worst-case fp32-accumulated term count for any pair drawn from the two
// sides: pairs with a dense operand walk all dim coordinates; sparse x
// sparse pairs walk at most the sum of the two supports.
double MaxPairTerms(const ScreenSideStats& q, const ScreenSideStats& r,
                    size_t dim) {
  size_t m = (q.has_dense || r.has_dense) ? dim : 0;
  m = std::max(m, q.max_sparse_nnz + r.max_sparse_nnz);
  return static_cast<double>(std::max<size_t>(m, 1));
}

// Cosine-space error band of the fp32 dot kernels:
// |dot32 - dot| <= gamma(m+1) * ||a|| ||b|| (Cauchy-Schwarz over the
// absolute terms, any summation order) gives an absolute error e_c on the
// cosine after the exact-double norm division (the fp32 narrowing of the
// quotient is another u, inside the 2x margin), inflated by the denormal
// floor over the smallest positive norm product. Zero-norm pairs take the
// exact convention values and carry no error at all. CosineKernel::Bound
// turns it into an absolute angular band via the Hölder-type bound
// |acos x - acos y| <= sqrt(2|x-y|) + |x-y| (the endpoint increment
// acos(1 - e) is the maximum and is below sqrt(2e) + e for every e in
// [0, 2]), plus 1e-5 for kernels::AcosScreenPoly — the screened angular
// kernels evaluate the arccos with that polynomial.
double CosineSpaceError(double m, double min_norm_q, double min_norm_r) {
  return (2.0 * m + 32.0) * kF32Eps + m * 3e-45 / (min_norm_q * min_norm_r);
}

// out[t] = the exact distance of q to row_view(rows[t]): DistanceRowsMany's
// loop, the roots taken in one batched pass for root-of-squares kernels.
// Flattened: left to itself GCC 12 calls the pair kernel out of line for
// every row, which costs more than the kernel at low dimension.
template <typename K, typename RowViewFn>
[[gnu::flatten]] void ExactRows(const VecView& q, std::span<const uint32_t> rows, double* out,
               const RowViewFn& row_view) {
  if constexpr (K::kRootOfSquares) {
    for (size_t t = 0; t < rows.size(); ++t) {
      out[t] = K::Squared(q, row_view(rows[t]));
    }
    kernels::SqrtLanes(out, rows.size());
  } else {
    for (size_t t = 0; t < rows.size(); ++t) {
      out[t] = K::Pair(q, row_view(rows[t]));
    }
  }
}

}  // namespace

// --- Kernel traits of the built-in metrics --------------------------------
// What KernelMetric<K> runs:
//   kName                    Name();
//   Pair, PairF32            exact and fp32 distance of one pair of views;
//   Lanes, SparseLanes       the tile engine's dense and sparse lane
//                            kernels, overloaded on the output scalar
//                            (double exact, float fp32); Finish turns a
//                            block of lane values into distances in place;
//   kDenseLanes, kUnionWalk  the tile engine's strategy switches;
//   SlotPair, SlotRadius     one sparse row against a sparse query's slot
//                            table (intersection kernels, !kUnionWalk):
//                            its distance, and whether it is within a
//                            radius;
//   kRootOfSquares           lane values are SQUARED distances (Squared,
//                            SquaredF32 per pair): one-query runs take the
//                            roots in one batched pass;
//   kScreens                 real fp32 kernels. When false the fp32 members
//                            keep the Metric fallbacks, the screening gate
//                            is always false and the screening members
//                            below are not needed;
//   Bound, Screens           ScreenErrorBound and the screening gate;
//   Slack                    IndexSlack.

// Euclidean and L1: union-walk sparse kernels, screened on every layout,
// and the additive bounds — relative (2m + 64) u, more than twice the
// derived (m + 6) u worst case on the distance, plus an absolute floor that
// soaks the underflow regime (fp32 u for the screen, double u for the
// exact kernels' index slack).
struct AdditiveKernel {
  static constexpr bool kDenseLanes = true;
  static constexpr bool kUnionWalk = true;
  static constexpr bool kRootOfSquares = false;
  static constexpr bool kScreens = true;
  static ScreenBound Bound(const ScreenSideStats& q, const ScreenSideStats& r,
                           size_t dim) {
    return ScreenBound{(2.0 * MaxPairTerms(q, r, dim) + 64.0) * kF32Eps,
                       1e-18};
  }
  static bool Screens(const ScreenSideStats&, const ScreenSideStats&) {
    return true;
  }
  static ScreenBound Slack(const Dataset& data) {
    ScreenSideStats s = SideStatsOf(data);
    return ScreenBound{(2.0 * MaxPairTerms(s, s, data.dim()) + 64.0) * kDblEps,
                       1e-30};
  }
};

struct EuclideanKernel : AdditiveKernel {
  static constexpr const char* kName = "euclidean";
  static constexpr bool kRootOfSquares = true;
  static double Pair(const VecView& a, const VecView& b) {
    return kernels::Euclidean(a, b);
  }
  static float PairF32(const VecView& a, const VecView& b) {
    return kernels::EuclideanF32(a, b);
  }
  static double Squared(const VecView& a, const VecView& b) {
    return kernels::SquaredEuclidean(a, b);
  }
  static float SquaredF32(const VecView& a, const VecView& b) {
    return kernels::SquaredEuclideanF32(a, b);
  }
  static void Lanes(const float* qt, const float* row, size_t dim,
                    double* out) {
    kernels::SquaredEuclideanLanes(qt, row, dim, out);
  }
  static void Lanes(const float* qt, const float* row, size_t dim,
                    float* out) {
    kernels::SquaredEuclideanLanesF32(qt, row, dim, out);
  }
  static void SparseLanes(const kernels::SparseTileScratch& ws,
                          const VecView& row, double* out) {
    kernels::SparseSquaredEuclideanLanes(ws, row, out);
  }
  static void SparseLanes(const kernels::SparseTileScratch& ws,
                          const VecView& row, float* out) {
    kernels::SparseSquaredEuclideanLanesF32(ws, row, out);
  }
  static void Finish(double* vals, const VecView*, const VecView&, size_t n) {
    kernels::SqrtLanes(vals, n);
  }
  static void Finish(float* vals, const VecView*, const VecView&, size_t n) {
    kernels::SqrtLanesF32(vals, n);
  }
  static void DenseRowsF32(const VecView& q, const Dataset& b,
                           const float* base, std::span<const uint32_t> rows,
                           float* out) {
    kernels::DenseRowsF32<kernels::SquaredDiffF32>(
        q.values, base, b.dim(), rows.data(), rows.size(), out);
  }
};

struct ManhattanKernel : AdditiveKernel {
  static constexpr const char* kName = "manhattan";
  static double Pair(const VecView& a, const VecView& b) {
    return kernels::L1(a, b);
  }
  static float PairF32(const VecView& a, const VecView& b) {
    return kernels::L1F32(a, b);
  }
  static void Lanes(const float* qt, const float* row, size_t dim,
                    double* out) {
    kernels::L1Lanes(qt, row, dim, out);
  }
  static void Lanes(const float* qt, const float* row, size_t dim,
                    float* out) {
    kernels::L1LanesF32(qt, row, dim, out);
  }
  static void SparseLanes(const kernels::SparseTileScratch& ws,
                          const VecView& row, double* out) {
    kernels::SparseL1Lanes(ws, row, out);
  }
  static void SparseLanes(const kernels::SparseTileScratch& ws,
                          const VecView& row, float* out) {
    kernels::SparseL1LanesF32(ws, row, out);
  }
  template <typename Out>
  static void Finish(Out*, const VecView*, const VecView&, size_t) {}
  static void DenseRowsF32(const VecView& q, const Dataset& b,
                           const float* base, std::span<const uint32_t> rows,
                           float* out) {
    kernels::DenseRowsF32<kernels::AbsDiffF32>(q.values, base, b.dim(),
                                               rows.data(), rows.size(), out);
  }
};

struct CosineKernel {
  static constexpr const char* kName = "cosine";
  static constexpr bool kDenseLanes = true;
  static constexpr bool kUnionWalk = false;
  static constexpr bool kRootOfSquares = false;
  static constexpr bool kScreens = true;
  static double Pair(const VecView& a, const VecView& b) {
    return kernels::AngularCosine(a, b);
  }
  static float PairF32(const VecView& a, const VecView& b) {
    return static_cast<float>(kernels::AngularCosineFromScreenedDot(
        kernels::DotF32(a, b), a.norm, b.norm));
  }
  static void Lanes(const float* qt, const float* row, size_t dim,
                    double* out) {
    kernels::DotLanes(qt, row, dim, out);
  }
  static void Lanes(const float* qt, const float* row, size_t dim,
                    float* out) {
    kernels::DotLanesF32(qt, row, dim, out);
  }
  static void SparseLanes(const kernels::SparseTileScratch& ws,
                          const VecView& row, double* out) {
    kernels::SparseDotLanes(ws, row, out);
  }
  static void SparseLanes(const kernels::SparseTileScratch& ws,
                          const VecView& row, float* out) {
    kernels::SparseDotLanesF32(ws, row, out);
  }
  // The cosine of kernels::AngularCosine from a dot product and two
  // nonzero norms: the same product, divide and clamp.
  static double ClampedCosine(double dot, double na, double nb) {
    double c = dot / (na * nb);
    return c < -1.0 ? -1.0 : (c > 1.0 ? 1.0 : c);
  }
  // Same postprocess as kernels::AngularCosine, with the lane-computed dot
  // products: identical zero-norm conventions, product, clamp, acos.
  static void Finish(double* vals, const VecView* qv, const VecView& row,
                     size_t n) {
    double na = row.norm;
    for (size_t lane = 0; lane < n; ++lane) {
      double nb = qv[lane].norm;
      if (na == 0.0 && nb == 0.0) {
        vals[lane] = 0.0;
      } else if (na == 0.0 || nb == 0.0) {
        vals[lane] = M_PI / 2.0;
      } else {
        vals[lane] = std::acos(ClampedCosine(vals[lane], na, nb));
      }
    }
  }
  // The same from the fp32 dot: exact double norms (so the zero-norm
  // conventions carry no error), double divide/clamp/acos, narrowed at the
  // end. Overflowed dots become NaN (always rescued).
  static void Finish(float* vals, const VecView* qv, const VecView& row,
                     size_t n) {
    for (size_t lane = 0; lane < n; ++lane) {
      vals[lane] = static_cast<float>(kernels::AngularCosineFromScreenedDot(
          vals[lane], row.norm, qv[lane].norm));
    }
  }
  // PairF32 over dense rows addressed directly: the fp32 dots, then the
  // same finish with the row norms.
  static void DenseRowsF32(const VecView& q, const Dataset& b,
                           const float* base, std::span<const uint32_t> rows,
                           float* out) {
    kernels::DenseRowsF32<kernels::ProductF32>(q.values, base, b.dim(),
                                               rows.data(), rows.size(), out);
    for (size_t t = 0; t < rows.size(); ++t) {
      out[t] = static_cast<float>(kernels::AngularCosineFromScreenedDot(
          out[t], b.norm(rows[t]), q.norm));
    }
  }
  // The dot of one sparse row with the query through its slot table
  // (QuerySlots). The row's slot hits are the common indices in ascending
  // order, so summing them in row order sums the scalar merge's terms in
  // the merge's order. Each chunk of row terms first lists its hits
  // without a branch (every term writes its position, and the cursor
  // advances only on a hit), then sums them: whether a term hits is data
  // the branch predictor cannot learn. Misses add no term, so the sum is
  // bit-identical to the merge's, -0.0 and NaN included.
  static double SlotDot(const uint32_t* slot, const VecView& q,
                        const VecView& row) {
    constexpr size_t kChunk = 64;
    uint32_t at[kChunk];
    uint32_t hit[kChunk];
    double s = 0.0;
    for (size_t j0 = 0; j0 < row.nnz; j0 += kChunk) {
      const size_t len = std::min(kChunk, row.nnz - j0);
      const uint32_t* indices = row.indices + j0;
      const float* values = row.values + j0;
      size_t n = 0;
      for (size_t j = 0; j < len; ++j) {
        const uint32_t p = slot[indices[j]];
        at[n] = static_cast<uint32_t>(j);
        hit[n] = p;
        n += p != 0;
      }
      for (size_t h = 0; h < n; ++h) {
        s += static_cast<double>(values[at[h]]) * q.values[hit[h] - 1];
      }
    }
    return s;
  }
  // One sparse pair through the query's slot table (SlotBatchMap).
  static double SlotPair(const uint32_t* slot, const VecView& q,
                         const VecView& row) {
    double s = SlotDot(slot, q, row);
    Finish(&s, &q, row, 1);
    return s;
  }
  // d(q, row) <= radius for sparse rows against the query's slot table
  // (SlotCoveredRun), decided on the clamped cosine c of Finish where it
  // can be: c >= hi certifies the row within the radius, c < lo certifies
  // it beyond, and only c in [lo, hi) pays for std::acos(c) <= radius.
  //
  // The band is sound because glibc's cos and acos are within 1 ulp.
  // Let r >= 0 be the radius, r1 = fl(r * fl(1 - 1e-12)) and
  // r2 = fl(r * fl(1 + 1e-12)); for normal r, r1 <= r(1 - 0.99e-12) and
  // r2 >= r(1 + 0.99e-12). An ulp of a value of magnitude <= 1 + 1e-15 is
  // at most 2^-52, so hi = fl(cos(r1) + 1e-15) >= cos(r1) + 1e-15 -
  // 2 * 2^-52 > cos(r1), and likewise lo < cos(r2).
  //   * c >= hi with r1 <= pi: c > cos(r1), and acos decreases on
  //     [-1, 1], so acos(c) < r1 and the computed acos is at most
  //     acos(c)(1 + 2^-52) < r1(1 + 2^-52) < r. With r1 > pi, the computed
  //     acos is at most fl(pi) < pi < r. For r = 0 or subnormal r, the
  //     computed cos(r1) is 1, hi = 1 + 1e-15 exceeds every clamped c, and
  //     nothing is certified.
  //   * c < lo with r2 < pi: c < cos(r2), so acos(c) > r2, and the
  //     computed acos is at least acos(c)(1 - 2^-52) > r2(1 - 2^-52) > r.
  //     For r = 0 or subnormal r, the computed cos(r2) is 1 and
  //     lo <= 1 - 0.5e-15, so acos(c) > 3e-8 > r. With r2 >= pi no c
  //     lies beyond, which lo = -inf encodes.
  // A NaN c (a NaN or infinite dot) fails both tests, and std::acos then
  // decides it as the exact path does; so does every c under a NaN or
  // infinite radius. No distance is within a negative radius. Zero norms
  // take Finish's conventions. Every decision is therefore the exact
  // path's.
  struct SlotRadius {
    explicit SlotRadius(double r) : radius(r) {
      constexpr double kInf = std::numeric_limits<double>::infinity();
      if (r < 0.0) {
        hi = lo = kInf;
        return;
      }
      hi = std::cos(r * (1.0 - 1e-12)) + 1e-15;
      lo = r * (1.0 + 1e-12) >= M_PI ? -kInf
                                      : std::cos(r * (1.0 + 1e-12)) - 1e-15;
    }
    bool operator()(const uint32_t* slot, const VecView& q,
                    const VecView& row) const {
      const double na = row.norm, nb = q.norm;
      if (na == 0.0 || nb == 0.0) {
        return (na == nb ? 0.0 : M_PI / 2.0) <= radius;
      }
      const double c = ClampedCosine(SlotDot(slot, q, row), na, nb);
      if (c >= hi) return true;
      if (c < lo) return false;
      return std::acos(c) <= radius;
    }
    double radius;
    double hi;
    double lo;
  };
  static ScreenBound Bound(const ScreenSideStats& q, const ScreenSideStats& r,
                           size_t dim) {
    double e_c = CosineSpaceError(MaxPairTerms(q, r, dim),
                                  q.min_positive_norm, r.min_positive_norm);
    double e_d = std::sqrt(2.0 * e_c) + e_c + 1e-5;
    return ScreenBound{0.0, std::min(e_d, 4.0)};
  }
  // Dense-only: a sparse sweep spends its time finding index
  // intersections, which fp32 cannot cheapen. The exact one-query path
  // (SlotBatchMap) finds them with one slot probe per row term, so a
  // screening pass would repeat that walk and then pay the rescues.
  static bool Screens(const ScreenSideStats& q, const ScreenSideStats& r) {
    return !q.has_sparse && !r.has_sparse;
  }
  // The distance here is the ANGULAR cosine — a genuine metric, so the triangle
  // inequality holds in angle space and that is where the matching bound
  // prunes. The slack is the cosine-space band of the exact double dot
  // (Cauchy-Schwarz over absolute terms, any order) with a denormal floor over
  // the smallest positive norm product, lifted to the angle like the screening
  // bound, plus ulp-scale headroom for the exact std::acos itself. Degrades to
  // the never-prune band (abs = 4 >= pi) when norms underflow the floor.
  static ScreenBound Slack(const Dataset& data) {
    ScreenSideStats s = SideStatsOf(data);
    double m = MaxPairTerms(s, s, data.dim());
    double e_c = (2.0 * m + 64.0) * kDblEps +
                 m * 1e-315 / (s.min_positive_norm * s.min_positive_norm);
    double e_d = std::sqrt(2.0 * e_c) + e_c + 1e-12;
    return ScreenBound{0.0, std::min(e_d, 4.0)};
  }
};

// No dense lane kernel: support counting over dense rows is integer-exact
// in any order and the devirtualized per-pair loop is already the win.
// Sparse blocks, however, go through the decoded presence-bitmask walk —
// intersections are counted once per block instead of re-merging both
// index lists for every pair. Never screens: support counting has no
// cheaper reduced-precision form, and the discrete value set would make
// screened ties (always rescued) common.
struct JaccardKernel {
  static constexpr const char* kName = "jaccard";
  static constexpr bool kDenseLanes = false;
  static constexpr bool kUnionWalk = false;
  static constexpr bool kRootOfSquares = false;
  static constexpr bool kScreens = false;
  static double Pair(const VecView& a, const VecView& b) {
    return kernels::SupportJaccard(a, b);
  }
  static void Lanes(const float*, const float*, size_t, double*) {}
  static void SparseLanes(const kernels::SparseTileScratch& ws,
                          const VecView& row, double* out) {
    kernels::SparseJaccardLanes(ws, row, out);
  }
  static void Finish(double*, const VecView*, const VecView&, size_t) {}
  // Support count through the query's slot table (SlotBatchMap).
  static double SlotPair(const uint32_t* slot, const VecView& q,
                         const VecView& row) {
    size_t inter = 0;
    for (size_t j = 0; j < row.nnz; ++j) inter += slot[row.indices[j]] != 0;
    size_t uni = row.nnz + q.nnz - inter;
    if (uni == 0) return 0.0;
    return 1.0 - static_cast<double>(inter) / static_cast<double>(uni);
  }
  // SlotPair <= radius (SlotCoveredRun): support counting is cheap.
  struct SlotRadius {
    explicit SlotRadius(double r) : radius(r) {}
    bool operator()(const uint32_t* slot, const VecView& q,
                    const VecView& row) const {
      return SlotPair(slot, q, row) <= radius;
    }
    double radius;
  };
  // A ratio of exact integer counts: one double divide and one subtract
  // round, so a couple of ulps relative plus an underflow floor covers it
  // with the usual >=2x margin.
  static ScreenBound Slack(const Dataset&) {
    return ScreenBound{8.0 * kDblEps, 1e-30};
  }
};

ScreenSideStats SideStatsOf(const Dataset& data) {
  ScreenSideStats s;
  s.has_dense = data.has_dense_rows();
  s.has_sparse = data.sparse_stats().rows > 0;
  s.max_sparse_nnz = data.sparse_stats().max_nnz;
  s.min_positive_norm = data.screen_stats().min_positive_norm;
  return s;
}

// --- Metric: scalar fallbacks for user-defined metrics --------------------

void Metric::DistanceToMany(const Point& query, const Dataset& data,
                            size_t begin, std::span<double> out) const {
  DIVERSE_CHECK_LE(begin + out.size(), data.size());
  Point row;
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = Distance(query, row.Assign(data.row(begin + i)));
  }
}

size_t Metric::CoveredPrefix(const Point& query, const Dataset& data,
                             size_t begin, size_t limit,
                             double radius) const {
  DIVERSE_CHECK_LE(begin, limit);
  DIVERSE_CHECK_LE(limit, data.size());
  // One DistanceToMany call per block. Blocks double while every row is
  // covered, up to 256 rows (GrainRows' floor, so each call is a single
  // range), and the first miss ends the run and wastes its block's tail.
  constexpr size_t kMinBlock = 16;
  constexpr size_t kMaxBlock = 256;
  double d[kMaxBlock];
  size_t i = begin;
  for (size_t block = kMinBlock; i < limit;
       block = std::min(2 * block, kMaxBlock)) {
    const size_t len = std::min(block, limit - i);
    DistanceToMany(query, data, i, std::span<double>(d, len));
    size_t covered = 0;
    while (covered < len && d[covered] <= radius) ++covered;
    i += covered;
    if (covered < len) break;
  }
  return i - begin;
}

void Metric::DistanceTile(const Dataset& queries, size_t q_begin, size_t nq,
                          const Dataset& data, size_t r_begin, size_t nr,
                          double* out, size_t out_stride) const {
  CheckTileArgs(queries, q_begin, nq, data, r_begin, nr, out_stride);
  // Each data row becomes a Point once per tile, not once per query.
  PointSet rows(nr);
  for (size_t r = 0; r < nr; ++r) rows[r].Assign(data.row(r_begin + r));
  for (size_t q = 0; q < nq; ++q) {
    const Point query = queries.point(q_begin + q);
    for (size_t r = 0; r < nr; ++r) {
      out[q * out_stride + r] = Distance(query, rows[r]);
    }
  }
}

void Metric::DistanceTileF32(const Dataset& queries, size_t q_begin,
                             size_t nq, const Dataset& data, size_t r_begin,
                             size_t nr, float* out, size_t out_stride) const {
  // Exact tile, narrowed to float. Valid under the default ScreenErrorBound
  // (one fp32 rounding); ScreeningProfitableFor stays false so screened
  // sweeps do not route hot loops through it.
  CheckTileArgs(queries, q_begin, nq, data, r_begin, nr, out_stride);
  if (nq == 0 || nr == 0) return;
  thread_local std::vector<double> tmp;
  tmp.resize(nq * nr);
  DistanceTile(queries, q_begin, nq, data, r_begin, nr, tmp.data(), nr);
  for (size_t q = 0; q < nq; ++q) {
    for (size_t r = 0; r < nr; ++r) {
      out[q * out_stride + r] = static_cast<float>(tmp[q * nr + r]);
    }
  }
}

void Metric::DistanceRowsMany(const Dataset& a, size_t i, const Dataset& b,
                              std::span<const uint32_t> rows,
                              double* out) const {
  const Point query = a.point(i);
  Point row;
  for (size_t t = 0; t < rows.size(); ++t) {
    out[t] = Distance(query, row.Assign(b.row(rows[t])));
  }
}

void Metric::DistanceRowsManyF32(const Dataset& a, size_t i, const Dataset& b,
                                 std::span<const uint32_t> rows,
                                 float* out) const {
  thread_local std::vector<double> tmp;
  tmp.resize(rows.size());
  DistanceRowsMany(a, i, b, rows, tmp.data());
  for (size_t t = 0; t < rows.size(); ++t) {
    out[t] = static_cast<float>(tmp[t]);
  }
}

ScreenBound Metric::ScreenErrorBound(const ScreenSideStats&,
                                     const ScreenSideStats&, size_t) const {
  // The default F32 kernels narrow an exact double to float: one fp32
  // rounding (4x margin), plus a floor for the denormal-float range.
  return ScreenBound{4.0 * kF32Eps, 1e-40};
}

ScreenBound Metric::IndexSlack(const Dataset&) const {
  // Unbounded band: every prune test fails, and UseIndexing keeps the
  // cluster-pair bound off altogether.
  return ScreenBound{0.0, std::numeric_limits<double>::infinity()};
}

// --- KernelMetric ---------------------------------------------------------

template <typename K>
double KernelMetric<K>::Distance(const Point& a, const Point& b) const {
  DIVERSE_CHECK_EQ(a.dim(), b.dim());
  return K::Pair(a.View(), b.View());
}

template <typename K>
void KernelMetric<K>::DistanceToMany(const Point& query, const Dataset& data,
                                     size_t begin,
                                     std::span<double> out) const {
  VecView q = QueryView(query, data);
  if constexpr (!K::kUnionWalk) {
    if (q.is_sparse() && data.dim() <= kDirectIndexMaxDim) {
      SlotBatchMap<K>(q, data, begin, out);
      return;
    }
  }
  BatchMap(data, begin, out,
           [&q](const VecView& row) { return K::Pair(row, q); });
}

template <typename K>
size_t KernelMetric<K>::CoveredPrefix(const Point& query, const Dataset& data,
                                      size_t begin, size_t limit,
                                      double radius) const {
  if constexpr (!K::kUnionWalk) {
    VecView q = QueryView(query, data);
    if (q.is_sparse() && data.dim() <= kDirectIndexMaxDim) {
      DIVERSE_CHECK_LE(begin, limit);
      DIVERSE_CHECK_LE(limit, data.size());
      return SlotCoveredRun<K>(q, data, begin, limit, radius);
    }
  }
  return Metric::CoveredPrefix(query, data, begin, limit, radius);
}

template <typename K>
void KernelMetric<K>::DistanceTile(const Dataset& queries, size_t q_begin,
                                   size_t nq, const Dataset& data,
                                   size_t r_begin, size_t nr, double* out,
                                   size_t out_stride) const {
  BatchTile<K>(queries, q_begin, nq, data, r_begin, nr, out, out_stride);
}

template <typename K>
void KernelMetric<K>::DistanceTileF32(const Dataset& queries, size_t q_begin,
                                      size_t nq, const Dataset& data,
                                      size_t r_begin, size_t nr, float* out,
                                      size_t out_stride) const {
  if constexpr (!K::kScreens) {
    Metric::DistanceTileF32(queries, q_begin, nq, data, r_begin, nr, out,
                            out_stride);
  } else {
    BatchTile<K>(queries, q_begin, nq, data, r_begin, nr, out, out_stride);
  }
}

template <typename K>
void KernelMetric<K>::DistanceRowsMany(const Dataset& a, size_t i,
                                       const Dataset& b,
                                       std::span<const uint32_t> rows,
                                       double* out) const {
  VecView q = a.row(i);
  if constexpr (!K::kUnionWalk) {
    if (q.is_sparse() && b.dim() <= kDirectIndexMaxDim) {
      SlotListedRows<K>(q, b, rows, out);
      return;
    }
  }
  const float* base = b.dense_rows();
  if (base != nullptr && !q.is_sparse()) {
    ExactRows<K>(q, rows, out, [base, &b, dim = b.dim()](uint32_t r) {
      VecView v;
      v.values = base + static_cast<size_t>(r) * dim;
      v.nnz = dim;
      v.dim = dim;
      v.norm = b.norm(r);
      return v;
    });
  } else {
    ExactRows<K>(q, rows, out, [&b](uint32_t r) { return b.row(r); });
  }
}

template <typename K>
void KernelMetric<K>::DistanceRowsManyF32(const Dataset& a, size_t i,
                                          const Dataset& b,
                                          std::span<const uint32_t> rows,
                                          float* out) const {
  if constexpr (!K::kScreens) {
    Metric::DistanceRowsManyF32(a, i, b, rows, out);
  } else {
    VecView q = a.row(i);
    const float* base = b.dense_rows();
    if (base != nullptr && !q.is_sparse()) {
      K::DenseRowsF32(q, b, base, rows, out);
    } else if constexpr (K::kRootOfSquares) {
      for (size_t t = 0; t < rows.size(); ++t) {
        out[t] = K::SquaredF32(b.row(rows[t]), q);
      }
    } else {
      for (size_t t = 0; t < rows.size(); ++t) {
        out[t] = K::PairF32(b.row(rows[t]), q);
      }
    }
    if constexpr (K::kRootOfSquares) {
      kernels::SqrtLanesF32(out, rows.size());
    }
  }
}

template <typename K>
ScreenBound KernelMetric<K>::ScreenErrorBound(const ScreenSideStats& queries,
                                              const ScreenSideStats& data,
                                              size_t dim) const {
  if constexpr (K::kScreens) {
    return K::Bound(queries, data, dim);
  } else {
    return Metric::ScreenErrorBound(queries, data, dim);
  }
}

template <typename K>
bool KernelMetric<K>::ScreeningProfitableFor(
    const ScreenSideStats& queries, const ScreenSideStats& data) const {
  if constexpr (K::kScreens) {
    return K::Screens(queries, data);
  } else {
    return false;
  }
}

template <typename K>
ScreenBound KernelMetric<K>::IndexSlack(const Dataset& data) const {
  return K::Slack(data);
}

template <typename K>
std::string KernelMetric<K>::Name() const {
  return K::kName;
}

template class KernelMetric<EuclideanKernel>;
template class KernelMetric<ManhattanKernel>;
template class KernelMetric<CosineKernel>;
template class KernelMetric<JaccardKernel>;

uint64_t SparseQueryDecodeCount() {
  return g_sparse_decode_count.load(std::memory_order_relaxed);
}

uint64_t SparseQueryDecodeHits() {
  return g_sparse_decode_hits.load(std::memory_order_relaxed);
}

void ResetSparseQueryDecodeStats() {
  g_sparse_decode_count.store(0, std::memory_order_relaxed);
  g_sparse_decode_hits.store(0, std::memory_order_relaxed);
}

std::unique_ptr<Metric> MakeMetricByName(const std::string& name,
                                         KernelPolicy policy) {
  if (name == "euclidean") return std::make_unique<EuclideanMetric>(policy);
  if (name == "manhattan") return std::make_unique<ManhattanMetric>(policy);
  if (name == "cosine") return std::make_unique<CosineMetric>(policy);
  if (name == "jaccard") return std::make_unique<JaccardMetric>(policy);
  return nullptr;
}

}  // namespace diverse
