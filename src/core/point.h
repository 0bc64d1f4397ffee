// Point representation for metric-space algorithms.
//
// The paper's experiments use two kinds of points: low-dimensional dense
// Euclidean vectors (synthetic R^2 / R^3 datasets) and high-dimensional
// sparse word-count vectors under the cosine distance (musiXmatch, 5000
// dims). `Point` supports both in a single value type so that the same
// algorithms (GMM, SMM, MapReduce drivers) run unchanged on either.

#ifndef DIVERSE_CORE_POINT_H_
#define DIVERSE_CORE_POINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/vector_kernels.h"

namespace diverse {

/// An immutable point: either a dense vector of floats, or a sparse vector
/// (sorted coordinate indices plus values) over a conceptual `dim()`-sized
/// space. The Euclidean norm is precomputed at construction because the
/// cosine distance evaluates it on every call.
class Point {
 public:
  /// Default-constructs an empty dense point (needed by containers).
  Point() = default;

  Point(const Point&) = default;
  Point(Point&&) = default;
  Point& operator=(const Point&) = default;
  Point& operator=(Point&&) = default;

  /// Creates a dense point from coordinate values.
  static Point Dense(std::vector<float> values);

  /// Convenience for small literals: Dense({x, y, z}).
  static Point Dense2(float x, float y);
  static Point Dense3(float x, float y, float z);

  /// Creates a sparse point. `indices` must be strictly increasing and all
  /// less than `dim`; `values` must have the same length as `indices`.
  static Point Sparse(std::vector<uint32_t> indices, std::vector<float> values,
                      uint32_t dim);

  /// Replaces this point with the valid point `v` views (norm included),
  /// reusing its buffers, so reading rows through one Point rarely allocates.
  Point& Assign(const kernels::VecView& v);

  /// True if this point uses the sparse representation.
  bool is_sparse() const { return is_sparse_; }

  /// Dimensionality of the ambient space.
  size_t dim() const { return dim_; }

  /// Number of stored coordinates (== dim() for dense points).
  size_t nnz() const { return values_.size(); }

  /// Dense coordinate access. Valid only for dense points.
  const std::vector<float>& dense_values() const;

  /// Sparse coordinate access. Valid only for sparse points.
  const std::vector<uint32_t>& sparse_indices() const;
  const std::vector<float>& sparse_values() const;

  /// Euclidean (L2) norm, precomputed.
  double norm() const { return norm_; }

  /// Non-owning kernel view of this point's coordinates, for the shared
  /// distance kernels of core/vector_kernels.h. Valid while the point lives.
  kernels::VecView View() const {
    kernels::VecView v;
    v.indices = is_sparse_ ? indices_.data() : nullptr;
    v.values = values_.data();
    v.nnz = values_.size();
    v.dim = dim_;
    v.norm = norm_;
    v.sparse = is_sparse_;
    return v;
  }

  /// Inner product with another point. Both points may be dense or sparse in
  /// any combination, but must share the same `dim()`.
  double Dot(const Point& other) const;

  /// Squared Euclidean distance to another point.
  double SquaredEuclideanDistanceTo(const Point& other) const;

  /// L1 distance to another point.
  double L1DistanceTo(const Point& other) const;

  /// Jaccard distance between coordinate supports:
  /// 1 - |supp(a) ∩ supp(b)| / |supp(a) ∪ supp(b)|. Defined for any mix of
  /// representations; dense points treat nonzero coordinates as the support.
  double SupportJaccardDistanceTo(const Point& other) const;

  /// Structural equality of representation and coordinates.
  bool operator==(const Point& other) const;

  /// Debug rendering, e.g. "(1.0, 2.5)" or "sparse{3:1.0, 17:2.0 | dim=5000}".
  std::string ToString() const;

  /// Approximate heap footprint in bytes.
  size_t MemoryBytes() const;

 private:
  // For dense points `indices_` is empty and `values_` holds all dim_
  // coordinates; for sparse points the two arrays run in parallel.
  std::vector<uint32_t> indices_;
  std::vector<float> values_;
  size_t dim_ = 0;
  double norm_ = 0.0;
  bool is_sparse_ = false;

  void ComputeNorm();
};

/// A dataset is simply a vector of points.
using PointSet = std::vector<Point>;

/// True if every stored coordinate of `p` is finite (no NaN/inf).
bool PointIsFinite(const Point& p);

}  // namespace diverse

#endif  // DIVERSE_CORE_POINT_H_
