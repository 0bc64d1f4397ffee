// Columnar dataset storage — the one in-memory copy of the points, in the
// layout the batched distance kernels run on.
//
// `PointSet` (a vector of `Point`) is an array-of-structs: every point owns
// its own heap-allocated coordinate vectors, so a distance sweep over n
// points chases 2n pointers and takes a virtual call per evaluation. For the
// O(k n)-evaluation hot loops (GMM, SMM updates, coreset rounds) that layout
// is the dominant cost. `Dataset` stores the points contiguously:
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
// A Dataset keeps no `Point`s: construction copies the coordinates into the
// arrays above and nothing else. `point(i)` builds a value-typed Point from
// row i where one is needed (solutions, core-sets, the engine boundary of
// the MapReduce drivers); library code otherwise reads rows.

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
#include "util/status.h"

namespace diverse {

/// Contiguous column-oriented storage for a point collection. Append-only;
/// all rows must share one ambient dimension.
class Dataset {
 public:
  /// An empty dataset. The first appended point fixes the dimension.
  Dataset() = default;

  /// Copies the coordinates of `points` into the columnar arrays. All points
  /// must share one dim (CHECK); see TryFromPoints for untrusted input.
  explicit Dataset(std::span<const Point> points);

  /// Builds like the constructor, but returns kInvalidArgument, naming the
  /// first point whose dim differs from point 0's, where the constructor
  /// would CHECK-abort. The entry point for points from outside the program
  /// (loaders, TrySolve).
  static StatusOr<Dataset> TryFromPoints(std::span<const Point> points);

  /// Number of rows.
  size_t size() const { return rows_.size(); }

  bool empty() const { return rows_.empty(); }

  /// Ambient dimension (0 while empty).
  size_t dim() const { return dim_; }

  /// Row i as a value-typed point built from the columns, equal (and bit
  /// for bit in norm) to the point the row was appended from.
  Point point(size_t i) const;

  /// Every row as a point, in row order: an O(n) export for API edges
  /// (benches, tests). Library code reads rows instead.
  PointSet points() const;

  /// True if row i uses the sparse representation.
  bool row_is_sparse(size_t i) const { return rows_[i].sparse != 0; }

  /// Kernel view of row i over the columnar arrays, valid until the next
  /// Append/Assign/Clear.
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

  /// Replaces the contents with src rows `rows` (in that order) by copying
  /// their columnar slices, norms and statistics — exactly the content
  /// Append of the same rows' points would have produced, at raw
  /// array-copy speed. The scratch path of the metric-index build
  /// (core/cover_tree.cc), which re-materializes every tree node's row range
  /// once to keep its pole sweeps on contiguous rows, of the greedy-matching
  /// refill scans (core/sequential.cc), and of every row subset a kernel
  /// sweep needs (center rows, solution rows, probe samples).
  void AssignGatherColumnar(const Dataset& src,
                            std::span<const uint32_t> rows);

  /// Approximate heap footprint in bytes (the columnar arrays).
  size_t MemoryBytes() const;

 private:
  struct RowRef {
    size_t start = 0;   // offset into dense_ or csr_{indices_,values_}
    uint32_t len = 0;   // stored coordinates (== dim for dense rows)
    uint8_t sparse = 0;
  };

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
