// Dense symmetric distance matrix over a small point set.
//
// Diversity objectives are functions of the pairwise distances of a k-subset
// (k is small: tens to a few hundred). Evaluators, the exact solvers, and
// the sequential approximation algorithms all work on a `DistanceMatrix`
// rather than on raw points, so they can be unit-tested against hand-built
// metrics and reused for generalized (multiplicity-weighted) core-sets.

#ifndef DIVERSE_CORE_DISTANCE_MATRIX_H_
#define DIVERSE_CORE_DISTANCE_MATRIX_H_

#include <cstddef>
#include <span>
#include <vector>

#include "core/dataset.h"
#include "core/metric.h"
#include "core/point.h"

namespace diverse {

/// A symmetric n-by-n matrix of nonnegative distances with zero diagonal.
class DistanceMatrix {
 public:
  /// Creates an n-by-n zero matrix.
  explicit DistanceMatrix(size_t n);

  /// Builds the full pairwise matrix of `points` under `metric`
  /// (n(n-1)/2 distance evaluations). Above a small size cutover, and when
  /// all points share one dimension, the build re-lays the points out
  /// columnar and streams blocked tiles (see the Dataset constructor);
  /// otherwise it runs the scalar per-pair loop. Both paths produce
  /// bit-identical entries.
  DistanceMatrix(std::span<const Point> points, const Metric& metric);

  /// Builds the full pairwise matrix of the rows of `data` under `metric`,
  /// streaming blocked Q x R tiles (Metric::DistanceTile) directly into the
  /// matrix storage, parallelized over block pairs on GlobalThreadPool().
  /// Exactly n(n-1)/2 distance evaluations (diagonal blocks run per-row
  /// suffix sweeps); every entry is computed independently, so the result
  /// is identical at any thread count.
  DistanceMatrix(const Dataset& data, const Metric& metric);

  /// Number of points.
  size_t size() const { return n_; }

  /// Distance between points i and j.
  double at(size_t i, size_t j) const { return d_[i * n_ + j]; }

  /// Row i as a contiguous span (row[j] == at(i, j)): the streaming-friendly
  /// accessor for scans that consume whole rows.
  std::span<const double> row(size_t i) const {
    return std::span<const double>(d_.data() + i * n_, n_);
  }

  /// Sets d(i,j) and d(j,i). Used by tests to construct explicit metrics.
  void set(size_t i, size_t j, double value);

  /// Restriction of this matrix to the rows/columns in `subset`.
  DistanceMatrix Restrict(std::span<const size_t> subset) const;

 private:
  void BuildTiled(const Dataset& data, const Metric& metric);

  size_t n_;
  std::vector<double> d_;
};

}  // namespace diverse

#endif  // DIVERSE_CORE_DISTANCE_MATRIX_H_
