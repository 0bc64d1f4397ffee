// Columnar dataset storage — the memory layout the batched distance kernels
// run on.
//
// `PointSet` (a vector of `Point`) is an array-of-structs: every point owns
// its own heap-allocated coordinate vectors, so a distance sweep over n
// points chases 2n pointers and takes a virtual call per evaluation. For the
// O(k n)-evaluation hot loops (GMM, SMM updates, coreset rounds) that layout
// is the dominant cost. `Dataset` stores the same points contiguously:
//
//   * dense rows in one row-major float array (`dim` floats per row);
//   * sparse rows in CSR form (one shared indices array + values array, with
//     per-row offsets);
//   * precomputed Euclidean norms for all rows (the cosine kernel reads them
//     on every evaluation).
//
// Rows may mix representations: each row keeps a dense-or-sparse tag, so a
// dataset built from a mixed PointSet is still valid (dense rows sweep the
// dense pool, sparse rows the CSR pool).
//
// A Dataset also retains the originating `Point`s (`points()`): algorithms
// frequently need value-typed points for coresets, solutions, and shims, and
// the retention is what makes the PointSet-based entry points thin wrappers
// (construction copies the points once; no per-call conversions afterwards).
// The columnar arrays add ~1x the coordinate storage on top — an explicit
// space-for-time trade documented in the README.

#ifndef DIVERSE_CORE_DATASET_H_
#define DIVERSE_CORE_DATASET_H_

#include <cstddef>
#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "core/point.h"
#include "core/vector_kernels.h"

namespace diverse {

/// Contiguous column-oriented storage for a point collection. Append-only;
/// all rows must share one ambient dimension.
class Dataset {
 public:
  /// An empty dataset. The first appended point fixes the dimension.
  Dataset() = default;

  /// Takes ownership of `points` and builds the columnar arrays.
  explicit Dataset(PointSet points);

  /// Builds from a span by copying the points.
  static Dataset FromPoints(std::span<const Point> points);

  /// Number of rows.
  size_t size() const { return rows_.size(); }

  bool empty() const { return rows_.empty(); }

  /// Ambient dimension (0 while empty).
  size_t dim() const { return dim_; }

  /// The stored points, in row order.
  const PointSet& points() const { return points_; }

  /// Row i as a value-typed point.
  const Point& point(size_t i) const { return points_[i]; }

  /// True if row i uses the sparse representation.
  bool row_is_sparse(size_t i) const { return rows_[i].sparse != 0; }

  /// Kernel view of row i over the columnar arrays (not the Point's own
  /// heap vectors), valid until the next Append/Clear.
  kernels::VecView row(size_t i) const {
    const RowRef& r = rows_[i];
    kernels::VecView v;
    if (r.sparse != 0) {
      v.indices = csr_indices_.data() + r.start;
      v.values = csr_values_.data() + r.start;
      v.sparse = true;
    } else {
      v.values = dense_.data() + r.start;
    }
    v.nnz = r.len;
    v.dim = dim_;
    v.norm = norms_[i];
    return v;
  }

  /// Precomputed Euclidean norm of row i.
  double norm(size_t i) const { return norms_[i]; }

  /// Aggregate statistics over the sparse rows, maintained incrementally by
  /// Append/Assign. The sparse tile engine (core/metric.cc over
  /// core/sparse_kernels.h) reads them to choose its probe strategy per
  /// query block — decisions depend only on these totals and the block
  /// content, never on scheduling, so tiled results stay deterministic.
  struct SparseStats {
    size_t rows = 0;       ///< rows stored in CSR form
    size_t total_nnz = 0;  ///< stored coordinates across all sparse rows
    size_t max_nnz = 0;    ///< largest single sparse row

    /// Mean stored coordinates per sparse row (0 when there are none).
    double AvgNnz() const {
      return rows == 0 ? 0.0
                       : static_cast<double>(total_nnz) /
                             static_cast<double>(rows);
    }
  };
  const SparseStats& sparse_stats() const { return sparse_stats_; }

  /// Aggregate inputs to the certified fp32 screening bounds
  /// (Metric::ScreenErrorBound), maintained incrementally by every mutation
  /// like sparse_stats(). The fp32 "shadow columns" of the screening engine
  /// are the primary SoA/CSR arrays themselves, so these norm statistics are
  /// the only screening state a dataset carries.
  struct ScreenStats {
    /// Smallest strictly positive row norm (+inf when no row has a positive
    /// norm, including the empty dataset); the cosine screening bound
    /// divides by it.
    double min_positive_norm = std::numeric_limits<double>::infinity();
    /// Largest row norm.
    double max_norm = 0.0;

    /// Folds one row norm in.
    void Add(double norm) {
      if (norm > 0.0) min_positive_norm = std::min(min_positive_norm, norm);
      max_norm = std::max(max_norm, norm);
    }
  };
  const ScreenStats& screen_stats() const { return screen_stats_; }

  /// True if any row uses the dense representation (the screening bounds
  /// use dim() as the worst-case term count for such rows).
  bool has_dense_rows() const { return rows_.size() > sparse_stats_.rows; }

  /// Content identity stamp: every mutation (Append/Assign/Clear) draws a
  /// fresh value from a process-global monotonic counter, so two datasets
  /// reporting the SAME nonzero stamp hold identical content — copies share
  /// the stamp until either side mutates, and stamps are never reused. The
  /// sparse decode cache (core/metric.cc) keys thread-local query-block
  /// scratch on it. 0 means "never mutated" (necessarily empty) and is
  /// treated as uncacheable. Moved-from datasets are valid-but-unspecified
  /// as usual; mutate (or Clear) before reusing one.
  uint64_t content_stamp() const { return content_stamp_; }

  /// Appends one row. The first row fixes dim(); later rows must match it.
  void Append(const Point& p);

  /// Replaces the contents with `points`: Clear() + Append for each point,
  /// reusing the existing columnar array capacity. This is the scratch-reuse
  /// path for per-partition re-layouts (MapReduce reducers rebuild a Dataset
  /// per partition; assigning into one scratch avoids re-allocating the
  /// dense/CSR/norm arrays every round).
  void Assign(std::span<const Point> points);

  /// Removes all rows (dimension resets with the next Append).
  void Clear();

  /// Replaces the contents with src rows `rows` (in that order), copying
  /// ONLY the columnar arrays, norms, and aggregate statistics — points()
  /// stays empty, so the value-typed accessors (point(), points()) must not
  /// be used on the result. Kernels, norms, and screening statistics see
  /// exactly the content Append of the same rows would have produced, at
  /// raw array-copy speed instead of per-Point heap copies. This is the
  /// scratch path of the metric-index build (core/cover_tree.cc), which
  /// re-materializes every tree node's row range once to keep its pole
  /// sweeps on contiguous rows.
  void AssignGatherColumnar(const Dataset& src,
                            std::span<const uint32_t> rows);

  /// Approximate heap footprint in bytes (points + columnar arrays).
  size_t MemoryBytes() const;

 private:
  struct RowRef {
    size_t start = 0;   // offset into dense_ or csr_{indices_,values_}
    uint32_t len = 0;   // stored coordinates (== dim for dense rows)
    uint8_t sparse = 0;
  };

  void AppendColumnar(const Point& p);

  PointSet points_;
  size_t dim_ = 0;
  std::vector<float> dense_;
  std::vector<uint32_t> csr_indices_;
  std::vector<float> csr_values_;
  std::vector<RowRef> rows_;
  std::vector<double> norms_;
  SparseStats sparse_stats_;
  ScreenStats screen_stats_;
  uint64_t content_stamp_ = 0;
};

}  // namespace diverse

#endif  // DIVERSE_CORE_DATASET_H_
