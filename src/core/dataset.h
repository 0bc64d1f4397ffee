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
#include <cstring>
#include <limits>
#include <memory>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "core/point.h"
#include "core/vector_kernels.h"
#include "util/status.h"

namespace diverse {

/// The kInvalidArgument Dataset::TryFromPoints returns when point `index`
/// has dim `dim` but point 0 has `first_dim`; the binary loader
/// (data/io.h) reports the same error for the same file.
Status RowDimMismatchError(size_t index, size_t dim, size_t first_dim);

/// Contiguous column-oriented storage for a point collection. Append-only;
/// all rows must share one ambient dimension.
class Dataset {
 public:
  /// An empty dataset. The first appended point fixes the dimension.
  Dataset() = default;

  /// Copies the coordinates of `points` into the columnar arrays, drawing
  /// one content stamp for all of them. All points must share one dim
  /// (CHECK); see TryFromPoints for untrusted input.
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

  /// Point::operator== between row i and `p`, building no point.
  bool RowEquals(size_t i, const Point& p) const;

  /// True if row i uses the sparse representation.
  bool row_is_sparse(size_t i) const { return rows_[i].sparse != 0; }

  /// Kernel view of row i over the columnar arrays, valid until the next
  /// Append/Clear.
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

  /// The dense row-major array when every row is dense — row i is then the
  /// dim() floats at dense_rows() + i * dim() — or nullptr when some row is
  /// sparse. The direct-addressing path of the indexed kernels
  /// (Metric::DistanceRowsMany / DistanceRowsManyF32), which then read
  /// scattered rows without building a view per row. Valid until the next
  /// Append/Clear.
  const float* dense_rows() const {
    return sparse_stats_.rows == 0 ? dense_.data() : nullptr;
  }

  /// Aggregate statistics over the sparse rows, maintained incrementally by
  /// every mutation. The sparse tile engine (core/metric.cc over
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

  /// Content identity stamp: every mutation (Append/Clear) draws a
  /// fresh value from a process-global monotonic counter, so two datasets
  /// reporting the SAME nonzero stamp hold identical content — copies share
  /// the stamp until either side mutates, and stamps are never reused. The
  /// sparse decode cache (core/metric.cc) keys thread-local query-block
  /// scratch on it. 0 means "uncacheable": never mutated (necessarily
  /// empty), or a record run was appended (AppendRecordRun) since the last
  /// Restamp. A zero stamp is never stale, only uncached. Moved-from
  /// datasets are valid-but-unspecified as usual; mutate (or Clear) before
  /// reusing one.
  uint64_t content_stamp() const { return content_stamp_; }

  /// Draws a fresh content stamp: the end of a parse that appended its
  /// rows with AppendRecordRun.
  void Restamp();

  /// Appends one row. The first row fixes dim(); later rows must match it.
  void Append(const Point& p);

  /// Appends `rows` records (WriteRecord's layout, below) laid end to end
  /// in `records`. `dense_values` and `sparse_entries` are the run's
  /// totals of dense coordinates and of sparse (index, value) pairs. Every
  /// array is sized once and each record copied once; norms are summed
  /// term for term as Point::ComputeNorm sums them, so the rows equal the
  /// ones Append stores for the same points. The batch path of the binary
  /// loader (data/io.h, TryParseDatasetBinary) and the wire decoder
  /// (comm/serialize.h): the caller has validated every record
  /// (TryDecodeRecord), and the run must match the totals and fill
  /// `records` exactly (CHECK). Same dim rule as Append. Draws no stamp:
  /// the stamp drops to 0 (uncacheable, see content_stamp) and the parse
  /// ends with one Restamp().
  void AppendRecordRun(std::string_view records, size_t rows,
                       size_t dense_values, size_t sparse_entries);

  /// Reserves room for `rows` more rows holding `dense_values` dense
  /// coordinates and `sparse_entries` sparse (index, value) pairs.
  void Reserve(size_t rows, size_t dense_values, size_t sparse_entries);

  /// Removes all rows (dimension resets with the next Append).
  void Clear();

  /// Replaces the contents with src rows `rows` (in that order) by copying
  /// their columnar slices, norms and statistics — exactly the content
  /// Append of the same rows' points would have produced. The arrays are
  /// sized once from the rows' totals and each row is one memcpy. The
  /// scratch path of the greedy-matching scans (core/sequential.cc:
  /// live-row refills and the cluster-major gather), of every row subset a
  /// kernel sweep needs (center rows, solution rows) and of the partition
  /// each MapReduce reducer attempt computes on.
  void AssignGatherColumnar(const Dataset& src,
                            std::span<const uint32_t> rows);

  /// Approximate heap footprint in bytes (the columnar arrays).
  size_t MemoryBytes() const;

 private:
  friend size_t FirstNonFiniteRow(const Dataset& data);

  struct RowRef;

  // Appends `points` as one sized run, drawing no stamp (the constructor
  // draws one for all of them).
  void AppendPoints(std::span<const Point> points);

  // Sets the length of every column: `rows` rows, `dense_values` dense
  // coordinates and `sparse_entries` sparse (index, value) pairs. New
  // elements are left for the caller to write.
  void Resize(size_t rows, size_t dense_values, size_t sparse_entries);

  // Copies one row's `nnz` values (and for a sparse row its indices) from
  // possibly unaligned bytes to the pool cursor `*dense_at` or `*csr_at`,
  // inside the pools' current length, advances that cursor and folds the
  // row into sparse_stats_. Returns the row's reference; the caller
  // stores it with the row's norm.
  RowRef CopyRow(bool sparse, uint32_t nnz, const void* indices,
                 const void* values, size_t* dense_at, size_t* csr_at);

  // Every field is written where a row is made; none has a default, so
  // a resized rows_ is not zero-filled first.
  struct RowRef {
    size_t start;   // offset into dense_ or csr_{indices_,values_}
    uint32_t len;   // stored coordinates (== dim for dense rows)
    uint8_t sparse;
  };

  // The allocator of the columns: resize() default-initializes the new
  // elements, which for these trivial types leaves them unwritten, so the
  // run append and the gather write each element once instead of zeroing
  // it first.
  template <typename T>
  struct NoInitAllocator : std::allocator<T> {
    template <typename U>
    struct rebind {
      using other = NoInitAllocator<U>;
    };
    NoInitAllocator() = default;
    template <typename U>
    NoInitAllocator(const NoInitAllocator<U>&) noexcept {}
    template <typename U>
    void construct(U* p) noexcept {
      ::new (static_cast<void*>(p)) U;
    }
    template <typename U, typename... Args>
    void construct(U* p, Args&&... args) {
      ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
    }
  };
  template <typename T>
  using Column = std::vector<T, NoInitAllocator<T>>;

  size_t dim_ = 0;
  Column<float> dense_;
  Column<uint32_t> csr_indices_;
  Column<float> csr_values_;
  Column<RowRef> rows_;
  Column<double> norms_;
  SparseStats sparse_stats_;
  ScreenStats screen_stats_;
  uint64_t content_stamp_ = 0;
};

/// The binary record of one row, the unit of the file format (data/io.h)
/// and of the wire (comm/serialize.h): a u8 tag, u32 dim, u32 nnz, then
/// for a sparse record `nnz` u32 indices, then `nnz` float values, all raw
/// little-endian bytes, possibly unaligned. WriteRecord writes one,
/// Dataset::AppendRecordRun reads validated ones, and data/io.h's
/// TryDecodeRecord validates untrusted ones.
inline constexpr uint8_t kDenseRecordTag = 0;
inline constexpr uint8_t kSparseRecordTag = 1;
/// Tag, dim and nnz: the size of a record with nnz 0, the smallest one.
inline constexpr size_t kRecordHeaderBytes = 9;

/// Size in bytes of the record of the vector `v` views.
inline size_t RecordSize(const kernels::VecView& v) {
  return kRecordHeaderBytes +
         v.nnz * (v.sparse ? sizeof(uint32_t) + sizeof(float) : sizeof(float));
}

/// Writes the record of the vector `v` views at `out`, which has
/// RecordSize(v) bytes of room, and returns the byte after it.
inline char* WriteRecord(const kernels::VecView& v, char* out) {
  const uint8_t tag = v.sparse ? kSparseRecordTag : kDenseRecordTag;
  const uint32_t dim = static_cast<uint32_t>(v.dim);
  const uint32_t nnz = static_cast<uint32_t>(v.nnz);
  std::memcpy(out, &tag, sizeof(tag));
  std::memcpy(out + 1, &dim, sizeof(dim));
  std::memcpy(out + 5, &nnz, sizeof(nnz));
  out += kRecordHeaderBytes;
  // memcpy requires valid pointers even for zero bytes.
  if (nnz == 0) return out;
  if (v.sparse) {
    std::memcpy(out, v.indices, nnz * sizeof(uint32_t));
    out += nnz * sizeof(uint32_t);
  }
  std::memcpy(out, v.values, nnz * sizeof(float));
  return out + nnz * sizeof(float);
}

/// Index of the first row of `data` holding a non-finite (NaN/inf)
/// coordinate, or data.size() when every coordinate is finite. The input
/// check of TrySolve and of every MapReduce partition attempt: it scans
/// the dense and CSR value pools flat and walks the rows only when it
/// finds a bad value, to name the first bad row.
size_t FirstNonFiniteRow(const Dataset& data);

}  // namespace diverse

#endif  // DIVERSE_CORE_DATASET_H_
