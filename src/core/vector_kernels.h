// Shared low-level distance kernels over raw coordinate arrays.
//
// Both the scalar Point methods (core/point.cc) and the batched columnar
// kernels (core/metric.cc over core/dataset.h) call these functions, so the
// two paths are bit-identical by construction: same representation
// dispatch, same accumulation order, same double-precision arithmetic. That
// identity is what lets tests require the batched kernels to reproduce the
// scalar reference exactly, and lets parallel GMM select the same index
// sequence as the sequential loop.
//
// A `VecView` is a non-owning view of one vector in either representation:
//   dense:  indices == nullptr, values has `dim` coordinates;
//   sparse: indices/values hold `nnz` sorted coordinate pairs over a
//           conceptual `dim`-sized space.

#ifndef DIVERSE_CORE_VECTOR_KERNELS_H_
#define DIVERSE_CORE_VECTOR_KERNELS_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

#if defined(__x86_64__) && defined(__SSE2__)
#include <emmintrin.h>
#endif

// The library has no AVX2 kernels; perfbench/src/main.cc reads this macro
// for the `avx2_compiled` field of its meta line, its only reader.
#define DIVERSE_HAVE_AVX2_KERNELS 0

namespace diverse {
namespace kernels {

/// Non-owning view of a dense or sparse vector.
struct VecView {
  const uint32_t* indices = nullptr;  // nullptr for dense vectors
  const float* values = nullptr;
  size_t nnz = 0;  // stored coordinates; == dim for dense
  size_t dim = 0;
  double norm = 0.0;  // precomputed Euclidean norm
  // Explicit representation tag. A sparse vector with zero stored
  // coordinates has indices == nullptr (an empty array has no storage), so
  // the pointer alone cannot distinguish it from a dense vector — and a
  // dense kernel would then walk the other operand's `dim` values against a
  // null values pointer.
  bool sparse = false;

  bool is_sparse() const { return sparse; }
};

namespace internal {

// Iterates the sparse-sparse union of two sorted index arrays, invoking
// `both` on common coordinates and `only_a`/`only_b` elsewhere. Mirrors the
// merge in core/point.cc exactly.
template <typename FBoth, typename FOnlyA, typename FOnlyB>
inline void MergeSparse(const VecView& a, const VecView& b, FBoth both,
                        FOnlyA only_a, FOnlyB only_b) {
  size_t i = 0, j = 0;
  while (i < a.nnz && j < b.nnz) {
    if (a.indices[i] == b.indices[j]) {
      both(a.values[i], b.values[j]);
      ++i;
      ++j;
    } else if (a.indices[i] < b.indices[j]) {
      only_a(a.values[i]);
      ++i;
    } else {
      only_b(b.values[j]);
      ++j;
    }
  }
  for (; i < a.nnz; ++i) only_a(a.values[i]);
  for (; j < b.nnz; ++j) only_b(b.values[j]);
}

inline size_t DenseSupportSize(const VecView& v) {
  size_t n = 0;
  for (size_t i = 0; i < v.nnz; ++i) n += (v.values[i] != 0.0f);
  return n;
}

}  // namespace internal

/// Inner product <a, b>. Representations may be mixed; dims must agree.
inline double Dot(const VecView& a, const VecView& b) {
  if (!a.is_sparse() && !b.is_sparse()) {
    double s = 0.0;
    for (size_t i = 0; i < a.nnz; ++i) {
      s += static_cast<double>(a.values[i]) * b.values[i];
    }
    return s;
  }
  if (a.is_sparse() && b.is_sparse()) {
    double s = 0.0;
    internal::MergeSparse(
        a, b, [&s](float x, float y) { s += static_cast<double>(x) * y; },
        [](float) {}, [](float) {});
    return s;
  }
  // Mixed: iterate the sparse one.
  const VecView& sp = a.is_sparse() ? a : b;
  const VecView& de = a.is_sparse() ? b : a;
  double s = 0.0;
  for (size_t i = 0; i < sp.nnz; ++i) {
    s += static_cast<double>(sp.values[i]) * de.values[sp.indices[i]];
  }
  return s;
}

/// Squared Euclidean distance |a - b|^2.
inline double SquaredEuclidean(const VecView& a, const VecView& b) {
  if (!a.is_sparse() && !b.is_sparse()) {
    double s = 0.0;
    for (size_t i = 0; i < a.nnz; ++i) {
      double d = static_cast<double>(a.values[i]) - b.values[i];
      s += d * d;
    }
    return s;
  }
  if (a.is_sparse() && b.is_sparse()) {
    // Direct coordinate merge: exact (no cancellation), unlike the
    // ||a||^2 + ||b||^2 - 2 a.b identity, which loses ~1e-7 of relative
    // precision and breaks d(p, p) == 0.
    double s = 0.0;
    internal::MergeSparse(
        a, b,
        [&s](float x, float y) {
          double d = static_cast<double>(x) - y;
          s += d * d;
        },
        [&s](float x) { s += static_cast<double>(x) * x; },
        [&s](float y) { s += static_cast<double>(y) * y; });
    return s;
  }
  // Mixed dense/sparse: walk the dense values with a sparse cursor.
  const VecView& sp = a.is_sparse() ? a : b;
  const VecView& de = a.is_sparse() ? b : a;
  double s = 0.0;
  size_t j = 0;
  for (size_t i = 0; i < de.nnz; ++i) {
    double sparse_v = 0.0;
    if (j < sp.nnz && sp.indices[j] == i) {
      sparse_v = sp.values[j];
      ++j;
    }
    double d = static_cast<double>(de.values[i]) - sparse_v;
    s += d * d;
  }
  return s;
}

/// L1 (rectilinear) distance |a - b|_1.
inline double L1(const VecView& a, const VecView& b) {
  double s = 0.0;
  if (!a.is_sparse() && !b.is_sparse()) {
    for (size_t i = 0; i < a.nnz; ++i) {
      s += std::abs(static_cast<double>(a.values[i]) - b.values[i]);
    }
    return s;
  }
  if (a.is_sparse() && b.is_sparse()) {
    internal::MergeSparse(
        a, b,
        [&s](float x, float y) { s += std::abs(static_cast<double>(x) - y); },
        [&s](float x) { s += std::abs(static_cast<double>(x)); },
        [&s](float y) { s += std::abs(static_cast<double>(y)); });
    return s;
  }
  const VecView& sp = a.is_sparse() ? a : b;
  const VecView& de = a.is_sparse() ? b : a;
  size_t j = 0;
  for (size_t i = 0; i < de.nnz; ++i) {
    float sparse_v = 0.0f;
    if (j < sp.nnz && sp.indices[j] == i) {
      sparse_v = sp.values[j];
      ++j;
    }
    s += std::abs(static_cast<double>(de.values[i]) - sparse_v);
  }
  return s;
}

/// Jaccard distance between coordinate supports:
/// 1 - |supp(a) ∩ supp(b)| / |supp(a) ∪ supp(b)|.
inline double SupportJaccard(const VecView& a, const VecView& b) {
  size_t inter = 0, size_a = 0, size_b = 0;
  if (a.is_sparse() && b.is_sparse()) {
    size_a = a.nnz;
    size_b = b.nnz;
    internal::MergeSparse(
        a, b, [&inter](float, float) { ++inter; }, [](float) {},
        [](float) {});
  } else if (!a.is_sparse() && !b.is_sparse()) {
    size_a = internal::DenseSupportSize(a);
    size_b = internal::DenseSupportSize(b);
    for (size_t i = 0; i < a.nnz; ++i) {
      inter += (a.values[i] != 0.0f && b.values[i] != 0.0f);
    }
  } else {
    const VecView& sp = a.is_sparse() ? a : b;
    const VecView& de = a.is_sparse() ? b : a;
    size_a = sp.nnz;
    size_b = internal::DenseSupportSize(de);
    for (size_t i = 0; i < sp.nnz; ++i) {
      inter += (de.values[sp.indices[i]] != 0.0f);
    }
  }
  size_t uni = size_a + size_b - inter;
  if (uni == 0) return 0.0;  // both vectors all-zero: identical supports
  return 1.0 - static_cast<double>(inter) / static_cast<double>(uni);
}

/// Angular cosine distance arccos(<a,b> / (|a||b|)), with the zero-vector
/// conventions of CosineMetric (core/metric.h).
inline double AngularCosine(const VecView& a, const VecView& b) {
  double na = a.norm, nb = b.norm;
  if (na == 0.0 && nb == 0.0) return 0.0;
  if (na == 0.0 || nb == 0.0) return M_PI / 2.0;
  double c = Dot(a, b) / (na * nb);
  // Guard against rounding pushing the cosine outside [-1, 1].
  c = c < -1.0 ? -1.0 : (c > 1.0 ? 1.0 : c);
  return std::acos(c);
}

/// Euclidean distance |a - b|.
inline double Euclidean(const VecView& a, const VecView& b) {
  return std::sqrt(SquaredEuclidean(a, b));
}

// ---------------------------------------------------------------------------
// Multi-query tile lane kernels (dense rows only).
//
// The blocked many-vs-many kernels (Metric::DistanceTile, core/metric.cc)
// vectorize *across queries*, not within a row: a block of up to kTileLanes
// dense queries is transposed into a [dim][kTileLanes] lane layout, and each
// data row is streamed once while every lane accumulates its own distance in
// coordinate order. Because each lane performs exactly the operations of the
// scalar kernels above, in the same order, with the same double-precision
// intermediates (sub, mul, add — deliberately no FMA), the lane kernels are
// bit-identical to the scalar reference. Sparse or mixed rows never reach
// these kernels — the tile layer falls back to the exact scalar merge kernels
// above.

/// Queries per transposed lane block.
inline constexpr size_t kTileLanes = 8;

/// Packs `nq` (<= kTileLanes) dense query views into the transposed lane
/// layout qt[d * kTileLanes + lane]; unused lanes are zero-filled. `qt` must
/// hold dim * kTileLanes floats.
inline void PackQueryLanes(const VecView* queries, size_t nq, size_t dim,
                           float* qt) {
  for (size_t d = 0; d < dim; ++d) {
    for (size_t lane = 0; lane < kTileLanes; ++lane) {
      qt[d * kTileLanes + lane] =
          lane < nq ? queries[lane].values[d] : 0.0f;
    }
  }
}

/// out[lane] = |q_lane - row|^2 for each packed query lane, bit-identical
/// per lane to SquaredEuclidean on the same pair.
inline void SquaredEuclideanLanes(const float* qt, const float* row,
                                  size_t dim, double* out) {
  double acc[kTileLanes] = {0, 0, 0, 0, 0, 0, 0, 0};
  for (size_t d = 0; d < dim; ++d) {
    double rv = row[d];
    const float* q = qt + d * kTileLanes;
    for (size_t lane = 0; lane < kTileLanes; ++lane) {
      double diff = static_cast<double>(q[lane]) - rv;
      acc[lane] += diff * diff;
    }
  }
  for (size_t lane = 0; lane < kTileLanes; ++lane) out[lane] = acc[lane];
}

/// out[lane] = |q_lane - row|_1, bit-identical per lane to L1.
inline void L1Lanes(const float* qt, const float* row, size_t dim,
                    double* out) {
  double acc[kTileLanes] = {0, 0, 0, 0, 0, 0, 0, 0};
  for (size_t d = 0; d < dim; ++d) {
    double rv = row[d];
    const float* q = qt + d * kTileLanes;
    for (size_t lane = 0; lane < kTileLanes; ++lane) {
      acc[lane] += std::abs(static_cast<double>(q[lane]) - rv);
    }
  }
  for (size_t lane = 0; lane < kTileLanes; ++lane) out[lane] = acc[lane];
}

/// In-place sqrt over `count` doubles. Uses packed SQRTPD where available:
/// IEEE 754 square root is correctly rounded, so the packed instruction is
/// bit-identical to std::sqrt on every element.
inline void SqrtLanes(double* vals, size_t count) {
#if defined(__x86_64__) && defined(__SSE2__)
  size_t i = 0;
  for (; i + 2 <= count; i += 2) {
    _mm_storeu_pd(vals + i, _mm_sqrt_pd(_mm_loadu_pd(vals + i)));
  }
  for (; i < count; ++i) vals[i] = std::sqrt(vals[i]);
#else
  for (size_t i = 0; i < count; ++i) vals[i] = std::sqrt(vals[i]);
#endif
}

/// out[lane] = <q_lane, row>, bit-identical per lane to Dot.
inline void DotLanes(const float* qt, const float* row, size_t dim,
                     double* out) {
  double acc[kTileLanes] = {0, 0, 0, 0, 0, 0, 0, 0};
  for (size_t d = 0; d < dim; ++d) {
    double rv = row[d];
    const float* q = qt + d * kTileLanes;
    for (size_t lane = 0; lane < kTileLanes; ++lane) {
      acc[lane] += static_cast<double>(q[lane]) * rv;
    }
  }
  for (size_t lane = 0; lane < kTileLanes; ++lane) out[lane] = acc[lane];
}

// ---------------------------------------------------------------------------
// fp32 screening kernels.
//
// The screen-then-certify engine (core/screen.h) sweeps candidates with
// *float* accumulation — the columnar arrays already store fp32 coordinates,
// so halving the accumulator width doubles the SIMD lane count and halves
// tile bandwidth — and re-evaluates in exact double only the candidates
// whose screened value lands within a certified error band of the decision
// threshold (Metric::ScreenErrorBound). Unlike the exact kernels above, the
// fp32 kernels promise no bit-exact relationship to the scalar reference:
// the per-metric bounds cover any summation order via the worst-case
// (sequential) gamma_n analysis, so each kernel is free to pick the order
// that vectorizes best. Every order is still *fixed in code* — never
// scheduling-dependent — so screened values, rescue sets, and evaluation
// counts are deterministic at any thread count.

/// Queries per transposed fp32 lane block (twice the double lane width).
inline constexpr size_t kTileLanesF32 = 16;

/// Packs `nq` (<= kTileLanesF32) dense query views into the transposed
/// fp32 lane layout qt[d * kTileLanesF32 + lane]; unused lanes zero-filled.
/// `qt` must hold dim * kTileLanesF32 floats.
inline void PackQueryLanesF32(const VecView* queries, size_t nq, size_t dim,
                              float* qt) {
  for (size_t d = 0; d < dim; ++d) {
    for (size_t lane = 0; lane < kTileLanesF32; ++lane) {
      qt[d * kTileLanesF32 + lane] =
          lane < nq ? queries[lane].values[d] : 0.0f;
    }
  }
}

namespace internal {

// Shared structure of the dense single-query fp32 kernels: eight partial
// accumulators filled 8 coordinates at a time (vectorizable without any
// reassociation by the compiler), a sequential tail accumulator, and a fixed
// pairwise reduction. The bound analysis covers this order like any other;
// the order depends only on n, so screened values stay deterministic. Low
// dimensions skip the 8-way structure — its reduction would cost more than
// the terms.
template <typename TermFn>
inline float Accumulate8F32(const float* a, const float* b, size_t n,
                            const TermFn& term) {
  if (n < 16) {
    float s = 0.0f;
    for (size_t d = 0; d < n; ++d) s += term(a[d], b[d]);
    return s;
  }
  float acc[8] = {};
  size_t n8 = n & ~size_t{7};
  for (size_t d = 0; d < n8; d += 8) {
    for (size_t j = 0; j < 8; ++j) acc[j] += term(a[d + j], b[d + j]);
  }
  float tail = 0.0f;
  for (size_t d = n8; d < n; ++d) tail += term(a[d], b[d]);
  float s0 = acc[0] + acc[4];
  float s1 = acc[1] + acc[5];
  float s2 = acc[2] + acc[6];
  float s3 = acc[3] + acc[7];
  return ((s0 + s2) + (s1 + s3)) + tail;
}

}  // namespace internal

// The per-coordinate terms of the dense fp32 kernels below, in a scalar
// (operator()) and, on x86-64, a four-lane SSE2 form (Vec) that performs
// the same IEEE operations. Passed as objects, so each term gets its own
// inlined Accumulate8F32.
struct SquaredDiffF32 {
  float operator()(float x, float y) const {
    float d = x - y;
    return d * d;
  }
#if defined(__x86_64__) && defined(__SSE2__)
  static __m128 Vec(__m128 x, __m128 y) {
    __m128 d = _mm_sub_ps(x, y);
    return _mm_mul_ps(d, d);
  }
#endif
};

struct AbsDiffF32 {
  float operator()(float x, float y) const { return std::abs(x - y); }
#if defined(__x86_64__) && defined(__SSE2__)
  static __m128 Vec(__m128 x, __m128 y) {
    return _mm_andnot_ps(_mm_set1_ps(-0.0f), _mm_sub_ps(x, y));
  }
#endif
};

struct ProductF32 {
  float operator()(float x, float y) const { return x * y; }
#if defined(__x86_64__) && defined(__SSE2__)
  static __m128 Vec(__m128 x, __m128 y) { return _mm_mul_ps(x, y); }
#endif
};

/// out[t] = Accumulate8F32(base + rows[t] * dim, q, dim, Term{}) for
/// t in [0, count): the dense fp32 kernels below (before any root or
/// cosine finish) over rows of a dense row-major array addressed directly
/// by index. At dim >= 16 the eight accumulators are two SSE2 registers and
/// the reduction is the same ((s0 + s2) + (s1 + s3)) + tail, so every value
/// is bit-identical to the per-pair kernel's.
template <typename Term>
inline void DenseRowsF32(const float* q, const float* base, size_t dim,
                         const uint32_t* rows, size_t count, float* out) {
#if defined(__x86_64__) && defined(__SSE2__)
  if (dim >= 16) {
    const size_t n8 = dim & ~size_t{7};
    for (size_t t = 0; t < count; ++t) {
      const float* r = base + static_cast<size_t>(rows[t]) * dim;
      __m128 lo = _mm_setzero_ps();
      __m128 hi = _mm_setzero_ps();
      for (size_t d = 0; d < n8; d += 8) {
        lo = _mm_add_ps(lo, Term::Vec(_mm_loadu_ps(r + d),
                                      _mm_loadu_ps(q + d)));
        hi = _mm_add_ps(hi, Term::Vec(_mm_loadu_ps(r + d + 4),
                                      _mm_loadu_ps(q + d + 4)));
      }
      float tail = 0.0f;
      for (size_t d = n8; d < dim; ++d) tail += Term{}(r[d], q[d]);
      const __m128 s = _mm_add_ps(lo, hi);                  // s0 s1 s2 s3
      const __m128 p = _mm_add_ps(s, _mm_movehl_ps(s, s));  // s0+s2 s1+s3
      out[t] = (_mm_cvtss_f32(p) + _mm_cvtss_f32(_mm_shuffle_ps(p, p, 1))) +
               tail;
    }
    return;
  }
#endif
  for (size_t t = 0; t < count; ++t) {
    out[t] = internal::Accumulate8F32(base + static_cast<size_t>(rows[t]) * dim,
                                      q, dim, Term{});
  }
}

// The fp32 lane kernels: out[lane] = |q_lane - row|^2, |q_lane - row|_1 or
// <q_lane, row> in fp32 for each packed query lane.
//
// They are hand-written SSE2 on x86-64 (part of the base ISA, no dispatch
// needed): left to the auto-vectorizer, GCC chooses an outer-loop
// (across-coordinates) strategy for these 16-lane float loops whose
// shuffle/transpose overhead runs slower than the scalar double kernels. The
// intrinsics pin the natural in-lane direction; every vector op maps 1:1 onto
// the plain-loop fallback's scalar sequence, so both variants produce
// identical float bits.

#if defined(__x86_64__) && defined(__SSE2__)

inline void SquaredEuclideanLanesF32(const float* qt, const float* row,
                                     size_t dim, float* out) {
  __m128 acc0 = _mm_setzero_ps();
  __m128 acc1 = _mm_setzero_ps();
  __m128 acc2 = _mm_setzero_ps();
  __m128 acc3 = _mm_setzero_ps();
  for (size_t d = 0; d < dim; ++d) {
    __m128 rv = _mm_set1_ps(row[d]);
    const float* q = qt + d * kTileLanesF32;
    __m128 d0 = _mm_sub_ps(_mm_loadu_ps(q), rv);
    __m128 d1 = _mm_sub_ps(_mm_loadu_ps(q + 4), rv);
    __m128 d2 = _mm_sub_ps(_mm_loadu_ps(q + 8), rv);
    __m128 d3 = _mm_sub_ps(_mm_loadu_ps(q + 12), rv);
    acc0 = _mm_add_ps(acc0, _mm_mul_ps(d0, d0));
    acc1 = _mm_add_ps(acc1, _mm_mul_ps(d1, d1));
    acc2 = _mm_add_ps(acc2, _mm_mul_ps(d2, d2));
    acc3 = _mm_add_ps(acc3, _mm_mul_ps(d3, d3));
  }
  _mm_storeu_ps(out, acc0);
  _mm_storeu_ps(out + 4, acc1);
  _mm_storeu_ps(out + 8, acc2);
  _mm_storeu_ps(out + 12, acc3);
}

inline void L1LanesF32(const float* qt, const float* row, size_t dim,
                       float* out) {
  const __m128 abs_mask = _mm_castsi128_ps(_mm_set1_epi32(0x7fffffff));
  __m128 acc0 = _mm_setzero_ps();
  __m128 acc1 = _mm_setzero_ps();
  __m128 acc2 = _mm_setzero_ps();
  __m128 acc3 = _mm_setzero_ps();
  for (size_t d = 0; d < dim; ++d) {
    __m128 rv = _mm_set1_ps(row[d]);
    const float* q = qt + d * kTileLanesF32;
    acc0 = _mm_add_ps(
        acc0, _mm_and_ps(_mm_sub_ps(_mm_loadu_ps(q), rv), abs_mask));
    acc1 = _mm_add_ps(
        acc1, _mm_and_ps(_mm_sub_ps(_mm_loadu_ps(q + 4), rv), abs_mask));
    acc2 = _mm_add_ps(
        acc2, _mm_and_ps(_mm_sub_ps(_mm_loadu_ps(q + 8), rv), abs_mask));
    acc3 = _mm_add_ps(
        acc3, _mm_and_ps(_mm_sub_ps(_mm_loadu_ps(q + 12), rv), abs_mask));
  }
  _mm_storeu_ps(out, acc0);
  _mm_storeu_ps(out + 4, acc1);
  _mm_storeu_ps(out + 8, acc2);
  _mm_storeu_ps(out + 12, acc3);
}

inline void DotLanesF32(const float* qt, const float* row, size_t dim,
                        float* out) {
  __m128 acc0 = _mm_setzero_ps();
  __m128 acc1 = _mm_setzero_ps();
  __m128 acc2 = _mm_setzero_ps();
  __m128 acc3 = _mm_setzero_ps();
  for (size_t d = 0; d < dim; ++d) {
    __m128 rv = _mm_set1_ps(row[d]);
    const float* q = qt + d * kTileLanesF32;
    acc0 = _mm_add_ps(acc0, _mm_mul_ps(_mm_loadu_ps(q), rv));
    acc1 = _mm_add_ps(acc1, _mm_mul_ps(_mm_loadu_ps(q + 4), rv));
    acc2 = _mm_add_ps(acc2, _mm_mul_ps(_mm_loadu_ps(q + 8), rv));
    acc3 = _mm_add_ps(acc3, _mm_mul_ps(_mm_loadu_ps(q + 12), rv));
  }
  _mm_storeu_ps(out, acc0);
  _mm_storeu_ps(out + 4, acc1);
  _mm_storeu_ps(out + 8, acc2);
  _mm_storeu_ps(out + 12, acc3);
}

#else  // !x86-64 SSE2

inline void SquaredEuclideanLanesF32(const float* qt, const float* row,
                                     size_t dim, float* out) {
  float acc[kTileLanesF32] = {};
  for (size_t d = 0; d < dim; ++d) {
    float rv = row[d];
    const float* q = qt + d * kTileLanesF32;
    for (size_t lane = 0; lane < kTileLanesF32; ++lane) {
      float diff = q[lane] - rv;
      acc[lane] += diff * diff;
    }
  }
  for (size_t lane = 0; lane < kTileLanesF32; ++lane) out[lane] = acc[lane];
}

inline void L1LanesF32(const float* qt, const float* row, size_t dim,
                       float* out) {
  float acc[kTileLanesF32] = {};
  for (size_t d = 0; d < dim; ++d) {
    float rv = row[d];
    const float* q = qt + d * kTileLanesF32;
    for (size_t lane = 0; lane < kTileLanesF32; ++lane) {
      acc[lane] += std::abs(q[lane] - rv);
    }
  }
  for (size_t lane = 0; lane < kTileLanesF32; ++lane) out[lane] = acc[lane];
}

inline void DotLanesF32(const float* qt, const float* row, size_t dim,
                        float* out) {
  float acc[kTileLanesF32] = {};
  for (size_t d = 0; d < dim; ++d) {
    float rv = row[d];
    const float* q = qt + d * kTileLanesF32;
    for (size_t lane = 0; lane < kTileLanesF32; ++lane) {
      acc[lane] += q[lane] * rv;
    }
  }
  for (size_t lane = 0; lane < kTileLanesF32; ++lane) out[lane] = acc[lane];
}

#endif  // x86-64 SSE2

/// In-place fp32 sqrt over `count` floats (packed SQRTPS where available;
/// IEEE sqrt is correctly rounded, so identical to sqrtf per element).
inline void SqrtLanesF32(float* vals, size_t count) {
#if defined(__x86_64__) && defined(__SSE2__)
  size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    _mm_storeu_ps(vals + i, _mm_sqrt_ps(_mm_loadu_ps(vals + i)));
  }
  for (; i < count; ++i) vals[i] = std::sqrt(vals[i]);
#else
  for (size_t i = 0; i < count; ++i) vals[i] = std::sqrt(vals[i]);
#endif
}

/// fp32 squared Euclidean distance |a - b|^2 (any representation mix).
inline float SquaredEuclideanF32(const VecView& a, const VecView& b) {
  if (!a.is_sparse() && !b.is_sparse()) {
    return internal::Accumulate8F32(a.values, b.values, a.nnz,
                                    SquaredDiffF32{});
  }
  float s = 0.0f;
  if (a.is_sparse() && b.is_sparse()) {
    internal::MergeSparse(
        a, b,
        [&s](float x, float y) {
          float d = x - y;
          s += d * d;
        },
        [&s](float x) { s += x * x; }, [&s](float y) { s += y * y; });
    return s;
  }
  const VecView& sp = a.is_sparse() ? a : b;
  const VecView& de = a.is_sparse() ? b : a;
  size_t j = 0;
  for (size_t i = 0; i < de.nnz; ++i) {
    float sparse_v = 0.0f;
    if (j < sp.nnz && sp.indices[j] == i) {
      sparse_v = sp.values[j];
      ++j;
    }
    float d = de.values[i] - sparse_v;
    s += d * d;
  }
  return s;
}

/// fp32 Euclidean distance |a - b|.
inline float EuclideanF32(const VecView& a, const VecView& b) {
  return std::sqrt(SquaredEuclideanF32(a, b));
}

/// fp32 L1 distance |a - b|_1 (any representation mix).
inline float L1F32(const VecView& a, const VecView& b) {
  if (!a.is_sparse() && !b.is_sparse()) {
    return internal::Accumulate8F32(a.values, b.values, a.nnz,
                                    AbsDiffF32{});
  }
  float s = 0.0f;
  if (a.is_sparse() && b.is_sparse()) {
    internal::MergeSparse(
        a, b, [&s](float x, float y) { s += std::abs(x - y); },
        [&s](float x) { s += std::abs(x); }, [&s](float y) { s += std::abs(y); });
    return s;
  }
  const VecView& sp = a.is_sparse() ? a : b;
  const VecView& de = a.is_sparse() ? b : a;
  size_t j = 0;
  for (size_t i = 0; i < de.nnz; ++i) {
    float sparse_v = 0.0f;
    if (j < sp.nnz && sp.indices[j] == i) {
      sparse_v = sp.values[j];
      ++j;
    }
    s += std::abs(de.values[i] - sparse_v);
  }
  return s;
}

/// fp32 inner product <a, b> (any representation mix).
inline float DotF32(const VecView& a, const VecView& b) {
  if (!a.is_sparse() && !b.is_sparse()) {
    return internal::Accumulate8F32(a.values, b.values, a.nnz,
                                    ProductF32{});
  }
  float s = 0.0f;
  if (a.is_sparse() && b.is_sparse()) {
    internal::MergeSparse(
        a, b, [&s](float x, float y) { s += x * y; }, [](float) {},
        [](float) {});
    return s;
  }
  const VecView& sp = a.is_sparse() ? a : b;
  const VecView& de = a.is_sparse() ? b : a;
  for (size_t i = 0; i < sp.nnz; ++i) {
    s += sp.values[i] * de.values[sp.indices[i]];
  }
  return s;
}

/// Polynomial arccos for the screened cosine kernels: the Abramowitz &
/// Stegun 4.4.46 7th-degree form, |poly - acos| <= 2e-8 over [0, 1]
/// (reflected for negatives), evaluated in fp32 (adding a few float ulps of
/// rounding). Total absolute error stays below 1e-5, which CosineBound
/// folds into the certified band — and which replaces a libm acos call
/// (the dominant per-pair cost of angular screening) with one sqrt and
/// eight multiply-adds. Requires x in [-1, 1].
inline float AcosScreenPoly(float x) {
  float ax = x < 0.0f ? -x : x;
  float s = std::sqrt(1.0f - ax);
  float p = -0.0012624911f;
  p = p * ax + 0.0066700901f;
  p = p * ax - 0.0170881256f;
  p = p * ax + 0.0308918810f;
  p = p * ax - 0.0501743046f;
  p = p * ax + 0.0889789874f;
  p = p * ax - 0.2145988016f;
  p = p * ax + 1.5707963050f;
  float r = s * p;
  return x < 0.0f ? 3.14159265358979f - r : r;
}

/// Screened angular cosine distance from an fp32-accumulated dot product.
/// The zero-norm conventions key off the *exact* double norms, so
/// convention-valued pairs carry no fp32 error at all; a non-finite dot
/// (fp32 overflow) yields NaN, which the certified comparisons of
/// core/screen.h treat as "always rescue". The arccos is the certified
/// AcosScreenPoly approximation, not libm acos.
inline double AngularCosineFromScreenedDot(double dot, double na, double nb) {
  if (na == 0.0 && nb == 0.0) return 0.0;
  if (na == 0.0 || nb == 0.0) return M_PI / 2.0;
  if (!std::isfinite(dot)) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  double c = dot / (na * nb);
  c = c < -1.0 ? -1.0 : (c > 1.0 ? 1.0 : c);
  return AcosScreenPoly(static_cast<float>(c));
}

}  // namespace kernels
}  // namespace diverse

#endif  // DIVERSE_CORE_VECTOR_KERNELS_H_
