// Blocked sparse×sparse tile kernels (CSR query blocks vs CSR rows).
//
// The dense tile path (core/vector_kernels.h) vectorizes across queries by
// transposing a lane block once and streaming each data row through it. This
// header gives the sparse representation the same treatment: a block of up
// to kTileLanes sparse queries is *decoded once* into a packed lane block
// over the sorted union of their supports, and every CSR data row is then
// streamed a single time against all lanes. The per-pair two-pointer merge
// of the scalar kernels (which re-decodes both operands for every pair) is
// replaced by one shared decode per block plus one index walk per row.
//
// Bit-exactness contract. Every lane reproduces the scalar merge kernels of
// core/vector_kernels.h bit for bit:
//   * Euclidean / L1 walk the merged union of the *block* support U and the
//     row support in ascending index order. For a given lane, indices the
//     lane stores contribute exactly the scalar merge's terms in the scalar
//     merge's order; indices only other lanes store contribute
//     (0 - 0)^2 = +0.0 (resp. |0 - 0| = +0.0) when the row also lacks them,
//     and (0 - y)^2 = y*y (resp. |0 - y| = |y|) when the row has them —
//     IEEE-identical to the scalar merge's "only_b" terms. Adding +0.0 to a
//     nonnegative accumulator never changes its bits, so the widened walk is
//     bit-identical per lane to the per-pair merge.
//   * Dot streams exactly the common indices in ascending order (absent
//     lanes contribute a signed zero, which cannot alter the final angular
//     distance — see CosineMetric::DistanceTile); Jaccard counts
//     intersections in exact
//     integer arithmetic off a per-index presence bitmask, so stored zero
//     values keep their scalar-merge support semantics.
//
// Strategy selection. The decoded block supports two probe strategies:
//   * kMergeWalk — two-pointer walk of (union, row) index lists, with
//     galloping (exponential + binary search) through the longer list when
//     the nnz ratio is heavily skewed;
//   * kDirectIndex — a dim-sized slot table mapping index -> union position
//     for O(1) probes of each row index. Worth its O(dim) per-block clear
//     only for modest dimensions or large row blocks; the tile driver picks
//     per block using the Dataset's nnz statistics (core/dataset.h).
// Both strategies visit the same index positions in the same order, so the
// choice never changes results — only the cost of finding the positions.

#ifndef DIVERSE_CORE_SPARSE_KERNELS_H_
#define DIVERSE_CORE_SPARSE_KERNELS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/vector_kernels.h"

namespace diverse {
namespace kernels {

/// Reusable workspace holding one decoded block of <= kTileLanes sparse
/// queries. Held thread_local by the tile driver so decode buffers are
/// allocated once per thread, not once per tile.
struct SparseTileScratch {
  /// Sorted union of the block lanes' stored indices.
  std::vector<uint32_t> indices;
  /// Packed lane values over the union: lanes[p * kTileLanes + l] is lane
  /// l's stored value at indices[p], 0.0f where lane l lacks the index.
  std::vector<float> lanes;
  /// Presence bitmask per union position: bit l set iff lane l *stores*
  /// indices[p] (distinguishes stored zeros from absent coordinates, which
  /// SupportJaccard's support semantics require).
  std::vector<uint8_t> mask;
  /// Direct-index mirror (kDirectIndex only): slot[idx] = union position of
  /// idx plus one, 0 when idx is not in the union. Sized to the ambient
  /// dimension and rebuilt per block.
  std::vector<uint32_t> slot;
  /// True when `slot` is valid for the current block.
  bool direct = false;
  /// Number of decoded lanes.
  size_t nq = 0;
  /// Stored coordinates per lane (Jaccard support sizes).
  size_t lane_nnz[kTileLanes] = {};
  /// Total stored coordinates across lanes (strategy input).
  size_t total_nnz = 0;

  // Pack-internal scratch (kept to reuse capacity).
  std::vector<uint32_t> tmp_indices;
};

/// Decodes `nq` (<= kTileLanes) sparse query views into `ws`. When
/// `direct_dim` is nonzero it is the ambient dimension and the direct-index
/// slot table is built; pass 0 to skip it (merge-walk probing only).
inline void PackSparseQueryLanes(const VecView* queries, size_t nq,
                                 size_t direct_dim, SparseTileScratch& ws) {
  ws.nq = nq;
  ws.total_nnz = 0;
  ws.tmp_indices.clear();
  for (size_t l = 0; l < nq; ++l) {
    ws.lane_nnz[l] = queries[l].nnz;
    ws.total_nnz += queries[l].nnz;
    ws.tmp_indices.insert(ws.tmp_indices.end(), queries[l].indices,
                          queries[l].indices + queries[l].nnz);
  }
  for (size_t l = nq; l < kTileLanes; ++l) ws.lane_nnz[l] = 0;
  std::sort(ws.tmp_indices.begin(), ws.tmp_indices.end());
  ws.tmp_indices.erase(
      std::unique(ws.tmp_indices.begin(), ws.tmp_indices.end()),
      ws.tmp_indices.end());
  std::swap(ws.indices, ws.tmp_indices);

  size_t u = ws.indices.size();
  ws.lanes.assign(u * kTileLanes, 0.0f);
  ws.mask.assign(u, 0);
  for (size_t l = 0; l < nq; ++l) {
    // The union is a superset of every lane's support, so a single forward
    // cursor locates each lane index.
    size_t p = 0;
    for (size_t i = 0; i < queries[l].nnz; ++i) {
      uint32_t idx = queries[l].indices[i];
      while (ws.indices[p] != idx) ++p;
      ws.lanes[p * kTileLanes + l] = queries[l].values[i];
      ws.mask[p] = static_cast<uint8_t>(ws.mask[p] | (1u << l));
    }
  }

  ws.direct = direct_dim > 0;
  if (ws.direct) {
    ws.slot.assign(direct_dim, 0);
    for (size_t p = 0; p < u; ++p) {
      ws.slot[ws.indices[p]] = static_cast<uint32_t>(p + 1);
    }
  }
}

namespace internal {

/// First position in sorted arr[from, n) with arr[pos] >= target, found by
/// exponential probing then binary search — O(log gap) instead of O(gap)
/// when consecutive targets land far apart (skewed nnz ratios).
inline size_t GallopLowerBound(const uint32_t* arr, size_t n, size_t from,
                               uint32_t target) {
  size_t step = 1;
  size_t hi = from;
  while (hi < n && arr[hi] < target) {
    from = hi + 1;
    hi += step;
    step <<= 1;
  }
  size_t end = hi < n ? hi : n;
  return static_cast<size_t>(
      std::lower_bound(arr + from, arr + end, target) - arr);
}

/// Streams the common indices of (ws.indices, r) in ascending order,
/// invoking hit(union_position, row_value_position) per match. Strategy:
/// direct slot probes when available, otherwise a two-pointer walk that
/// gallops through the longer list when the length ratio exceeds 8x.
template <typename HitFn>
inline void ForEachIntersection(const SparseTileScratch& ws, const VecView& r,
                                const HitFn& hit) {
  size_t u = ws.indices.size();
  if (ws.direct) {
    for (size_t j = 0; j < r.nnz; ++j) {
      uint32_t p = ws.slot[r.indices[j]];
      if (p != 0) hit(static_cast<size_t>(p - 1), j);
    }
    return;
  }
  const uint32_t* ui = ws.indices.data();
  if (u > 8 * r.nnz) {
    // Few row indices against a wide union: gallop through the union.
    size_t i = 0;
    for (size_t j = 0; j < r.nnz && i < u; ++j) {
      i = GallopLowerBound(ui, u, i, r.indices[j]);
      if (i < u && ui[i] == r.indices[j]) hit(i++, j);
    }
    return;
  }
  if (r.nnz > 8 * u) {
    // Wide row against a narrow union: gallop through the row.
    size_t j = 0;
    for (size_t i = 0; i < u && j < r.nnz; ++i) {
      j = GallopLowerBound(r.indices, r.nnz, j, ui[i]);
      if (j < r.nnz && r.indices[j] == ui[i]) hit(i, j++);
    }
    return;
  }
  size_t i = 0, j = 0;
  while (i < u && j < r.nnz) {
    if (ui[i] == r.indices[j]) {
      hit(i, j);
      ++i;
      ++j;
    } else if (ui[i] < r.indices[j]) {
      ++i;
    } else {
      ++j;
    }
  }
}

}  // namespace internal

/// out[l] = |q_l - r|^2 for every decoded lane, bit-identical per lane to
/// SquaredEuclidean on the sparse pair. Walks the merged union of the block
/// support and the row support in ascending index order (see the header
/// comment for why the block-widened union preserves bit-exactness).
inline void SparseSquaredEuclideanLanes(const SparseTileScratch& ws,
                                        const VecView& r, double* out) {
  double acc[kTileLanes] = {0, 0, 0, 0, 0, 0, 0, 0};
  size_t u = ws.indices.size();
  size_t i = 0, j = 0;
  while (i < u && j < r.nnz) {
    uint32_t ui = ws.indices[i], rj = r.indices[j];
    if (ui == rj) {
      double rv = r.values[j];
      const float* q = ws.lanes.data() + i * kTileLanes;
      for (size_t l = 0; l < kTileLanes; ++l) {
        double d = static_cast<double>(q[l]) - rv;
        acc[l] += d * d;
      }
      ++i;
      ++j;
    } else if (ui < rj) {
      const float* q = ws.lanes.data() + i * kTileLanes;
      for (size_t l = 0; l < kTileLanes; ++l) {
        double d = static_cast<double>(q[l]);
        acc[l] += d * d;
      }
      ++i;
    } else {
      double rv = r.values[j];
      double t = rv * rv;
      for (size_t l = 0; l < kTileLanes; ++l) acc[l] += t;
      ++j;
    }
  }
  for (; i < u; ++i) {
    const float* q = ws.lanes.data() + i * kTileLanes;
    for (size_t l = 0; l < kTileLanes; ++l) {
      double d = static_cast<double>(q[l]);
      acc[l] += d * d;
    }
  }
  for (; j < r.nnz; ++j) {
    double rv = r.values[j];
    double t = rv * rv;
    for (size_t l = 0; l < kTileLanes; ++l) acc[l] += t;
  }
  for (size_t l = 0; l < kTileLanes; ++l) out[l] = acc[l];
}

/// out[l] = |q_l - r|_1 per decoded lane, bit-identical to L1 on the sparse
/// pair (same union-walk argument as SparseSquaredEuclideanLanes).
inline void SparseL1Lanes(const SparseTileScratch& ws, const VecView& r,
                          double* out) {
  double acc[kTileLanes] = {0, 0, 0, 0, 0, 0, 0, 0};
  size_t u = ws.indices.size();
  size_t i = 0, j = 0;
  while (i < u && j < r.nnz) {
    uint32_t ui = ws.indices[i], rj = r.indices[j];
    if (ui == rj) {
      double rv = r.values[j];
      const float* q = ws.lanes.data() + i * kTileLanes;
      for (size_t l = 0; l < kTileLanes; ++l) {
        acc[l] += std::abs(static_cast<double>(q[l]) - rv);
      }
      ++i;
      ++j;
    } else if (ui < rj) {
      const float* q = ws.lanes.data() + i * kTileLanes;
      for (size_t l = 0; l < kTileLanes; ++l) {
        acc[l] += std::abs(static_cast<double>(q[l]));
      }
      ++i;
    } else {
      double t = std::abs(static_cast<double>(r.values[j]));
      for (size_t l = 0; l < kTileLanes; ++l) acc[l] += t;
      ++j;
    }
  }
  for (; i < u; ++i) {
    const float* q = ws.lanes.data() + i * kTileLanes;
    for (size_t l = 0; l < kTileLanes; ++l) {
      acc[l] += std::abs(static_cast<double>(q[l]));
    }
  }
  for (; j < r.nnz; ++j) {
    double t = std::abs(static_cast<double>(r.values[j]));
    for (size_t l = 0; l < kTileLanes; ++l) acc[l] += t;
  }
  for (size_t l = 0; l < kTileLanes; ++l) out[l] = acc[l];
}

/// out[l] = <q_l, r> per decoded lane. Streams exactly the common indices in
/// ascending order — the scalar sparse-merge dot's term sequence. Lanes that
/// lack a probed index accumulate 0.0f * value, a signed zero that can only
/// differ from the scalar accumulator when the entire dot is a signed zero,
/// which the angular-cosine postprocess maps to the identical distance.
inline void SparseDotLanes(const SparseTileScratch& ws, const VecView& r,
                           double* out) {
  double acc[kTileLanes] = {0, 0, 0, 0, 0, 0, 0, 0};
  internal::ForEachIntersection(ws, r, [&](size_t p, size_t j) {
    double rv = r.values[j];
    const float* q = ws.lanes.data() + p * kTileLanes;
    for (size_t l = 0; l < kTileLanes; ++l) {
      acc[l] += static_cast<double>(q[l]) * rv;
    }
  });
  for (size_t l = 0; l < kTileLanes; ++l) out[l] = acc[l];
}

/// fp32 screening variant of SparseSquaredEuclideanLanes: same union walk,
/// float accumulators. No bit-exactness promise — covered by the certified
/// error bound of Metric::ScreenErrorBound (the walk order is fixed, so
/// screened values are still deterministic at any thread count).
inline void SparseSquaredEuclideanLanesF32(const SparseTileScratch& ws,
                                           const VecView& r, float* out) {
  float acc[kTileLanes] = {};
  size_t u = ws.indices.size();
  size_t i = 0, j = 0;
  while (i < u && j < r.nnz) {
    uint32_t ui = ws.indices[i], rj = r.indices[j];
    if (ui == rj) {
      float rv = r.values[j];
      const float* q = ws.lanes.data() + i * kTileLanes;
      for (size_t l = 0; l < kTileLanes; ++l) {
        float d = q[l] - rv;
        acc[l] += d * d;
      }
      ++i;
      ++j;
    } else if (ui < rj) {
      const float* q = ws.lanes.data() + i * kTileLanes;
      for (size_t l = 0; l < kTileLanes; ++l) acc[l] += q[l] * q[l];
      ++i;
    } else {
      float rv = r.values[j];
      float t = rv * rv;
      for (size_t l = 0; l < kTileLanes; ++l) acc[l] += t;
      ++j;
    }
  }
  for (; i < u; ++i) {
    const float* q = ws.lanes.data() + i * kTileLanes;
    for (size_t l = 0; l < kTileLanes; ++l) acc[l] += q[l] * q[l];
  }
  for (; j < r.nnz; ++j) {
    float rv = r.values[j];
    float t = rv * rv;
    for (size_t l = 0; l < kTileLanes; ++l) acc[l] += t;
  }
  for (size_t l = 0; l < kTileLanes; ++l) out[l] = acc[l];
}

/// fp32 screening variant of SparseL1Lanes.
inline void SparseL1LanesF32(const SparseTileScratch& ws, const VecView& r,
                             float* out) {
  float acc[kTileLanes] = {};
  size_t u = ws.indices.size();
  size_t i = 0, j = 0;
  while (i < u && j < r.nnz) {
    uint32_t ui = ws.indices[i], rj = r.indices[j];
    if (ui == rj) {
      float rv = r.values[j];
      const float* q = ws.lanes.data() + i * kTileLanes;
      for (size_t l = 0; l < kTileLanes; ++l) acc[l] += std::abs(q[l] - rv);
      ++i;
      ++j;
    } else if (ui < rj) {
      const float* q = ws.lanes.data() + i * kTileLanes;
      for (size_t l = 0; l < kTileLanes; ++l) acc[l] += std::abs(q[l]);
      ++i;
    } else {
      float t = std::abs(r.values[j]);
      for (size_t l = 0; l < kTileLanes; ++l) acc[l] += t;
      ++j;
    }
  }
  for (; i < u; ++i) {
    const float* q = ws.lanes.data() + i * kTileLanes;
    for (size_t l = 0; l < kTileLanes; ++l) acc[l] += std::abs(q[l]);
  }
  for (; j < r.nnz; ++j) {
    float t = std::abs(r.values[j]);
    for (size_t l = 0; l < kTileLanes; ++l) acc[l] += t;
  }
  for (size_t l = 0; l < kTileLanes; ++l) out[l] = acc[l];
}

/// fp32 screening variant of SparseDotLanes (same intersection stream).
inline void SparseDotLanesF32(const SparseTileScratch& ws, const VecView& r,
                              float* out) {
  float acc[kTileLanes] = {};
  internal::ForEachIntersection(ws, r, [&](size_t p, size_t j) {
    float rv = r.values[j];
    const float* q = ws.lanes.data() + p * kTileLanes;
    for (size_t l = 0; l < kTileLanes; ++l) acc[l] += q[l] * rv;
  });
  for (size_t l = 0; l < kTileLanes; ++l) out[l] = acc[l];
}

/// out[l] = SupportJaccard(q_l, r) per decoded lane, exactly: intersections
/// are counted off the presence bitmask (stored zeros count as support, as
/// in the scalar sparse merge) and the final division uses the identical
/// integer operands.
inline void SparseJaccardLanes(const SparseTileScratch& ws, const VecView& r,
                               double* out) {
  uint32_t inter[kTileLanes] = {0, 0, 0, 0, 0, 0, 0, 0};
  internal::ForEachIntersection(ws, r, [&](size_t p, size_t) {
    uint8_t m = ws.mask[p];
    for (size_t l = 0; l < kTileLanes; ++l) {
      inter[l] += (m >> l) & 1u;
    }
  });
  for (size_t l = 0; l < ws.nq; ++l) {
    size_t uni = ws.lane_nnz[l] + r.nnz - inter[l];
    out[l] = uni == 0
                 ? 0.0
                 : 1.0 - static_cast<double>(inter[l]) /
                             static_cast<double>(uni);
  }
}

}  // namespace kernels
}  // namespace diverse

#endif  // DIVERSE_CORE_SPARSE_KERNELS_H_
