#include "core/dataset.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <string>
#include <utility>

#include "util/check.h"

namespace diverse {

namespace {

// Process-global stamp source for Dataset::content_stamp(): relaxed is
// enough (the counter only needs uniqueness, not ordering), and 64 bits
// never wrap in practice.
std::atomic<uint64_t>  // lint: allow(no-mutable-globals-in-core) unique ids
    g_next_content_stamp{1};

uint64_t NextContentStamp() {
  return g_next_content_stamp.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

Status RowDimMismatchError(size_t index, size_t dim, size_t first_dim) {
  return InvalidArgumentError("point " + std::to_string(index) + " has dim " +
                              std::to_string(dim) + " but point 0 has dim " +
                              std::to_string(first_dim));
}

namespace {

// True when every float of [v, v + n) is finite: inf and NaN are the values
// whose exponent bits are all ones. The loop has no early exit, so the
// compiler vectorizes it.
bool AllFinite(const float* v, size_t n) {
  uint32_t bad = 0;
  for (size_t i = 0; i < n; ++i) {
    uint32_t bits;
    std::memcpy(&bits, v + i, sizeof(bits));
    bad |= static_cast<uint32_t>((bits & 0x7F800000u) == 0x7F800000u);
  }
  return bad == 0;
}

}  // namespace

size_t FirstNonFiniteRow(const Dataset& data) {
  if (AllFinite(data.dense_.data(), data.dense_.size()) &&
      AllFinite(data.csr_values_.data(), data.csr_values_.size())) {
    return data.size();
  }
  for (size_t i = 0; i < data.size(); ++i) {
    const kernels::VecView v = data.row(i);
    if (!AllFinite(v.values, v.nnz)) return i;
  }
  return data.size();
}

Dataset::Dataset(std::span<const Point> points) {
  AppendPoints(points);
  if (!points.empty()) Restamp();
}

StatusOr<Dataset> Dataset::TryFromPoints(std::span<const Point> points) {
  for (size_t i = 1; i < points.size(); ++i) {
    if (points[i].dim() != points[0].dim()) {
      return RowDimMismatchError(i, points[i].dim(), points[0].dim());
    }
  }
  return Dataset(points);
}

Point Dataset::point(size_t i) const {
  Point p;
  p.Assign(row(i));
  return p;
}

bool Dataset::RowEquals(size_t i, const Point& p) const {
  const kernels::VecView a = row(i);
  const kernels::VecView b = p.View();
  return a.sparse == b.sparse && a.dim == b.dim && a.nnz == b.nnz &&
         std::equal(a.values, a.values + a.nnz, b.values) &&
         (!a.sparse || std::equal(a.indices, a.indices + a.nnz, b.indices));
}

PointSet Dataset::points() const {
  PointSet out;
  out.reserve(size());
  for (size_t i = 0; i < size(); ++i) out.push_back(point(i));
  return out;
}

void Dataset::Append(const Point& p) {
  AppendPoints(std::span<const Point>(&p, 1));
  Restamp();
}

void Dataset::AppendPoints(std::span<const Point> points) {
  size_t dense_total = 0;
  size_t csr_total = 0;
  for (const Point& p : points) {
    (p.is_sparse() ? csr_total : dense_total) += p.nnz();
  }
  const size_t first = rows_.size();
  size_t dense_at = dense_.size();
  size_t csr_at = csr_values_.size();
  Resize(first + points.size(), dense_at + dense_total, csr_at + csr_total);
  for (size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    if (first + i == 0) dim_ = p.dim();
    DIVERSE_CHECK_EQ(p.dim(), dim_);
    const kernels::VecView v = p.View();
    rows_[first + i] = CopyRow(v.sparse, static_cast<uint32_t>(v.nnz),
                               v.indices, v.values, &dense_at, &csr_at);
    norms_[first + i] = p.norm();
    screen_stats_.Add(p.norm());
  }
}

void Dataset::AppendRecordRun(std::string_view records, size_t rows,
                              size_t dense_values, size_t sparse_entries) {
  content_stamp_ = 0;
  const size_t first = rows_.size();
  size_t dense_at = dense_.size();
  size_t csr_at = csr_values_.size();
  Resize(first + rows, dense_at + dense_values, csr_at + sparse_entries);
  const char* p = records.data();
  const char* const end = p + records.size();
  for (size_t i = first; i < rows_.size(); ++i) {
    DIVERSE_CHECK_LE(kRecordHeaderBytes, static_cast<size_t>(end - p));
    const bool sparse = *p == kSparseRecordTag;
    uint32_t dim;
    uint32_t nnz;
    std::memcpy(&dim, p + 1, sizeof(dim));
    std::memcpy(&nnz, p + 5, sizeof(nnz));
    p += kRecordHeaderBytes;
    if (i == 0) dim_ = dim;
    DIVERSE_CHECK_EQ(dim, dim_);
    const size_t index_bytes = sparse ? nnz * sizeof(uint32_t) : 0;
    DIVERSE_CHECK_LE(index_bytes + nnz * sizeof(float),
                     static_cast<size_t>(end - p));
    const RowRef r =
        CopyRow(sparse, nnz, p, p + index_bytes, &dense_at, &csr_at);
    p += index_bytes + nnz * sizeof(float);
    // Point::ComputeNorm's sum, term for term.
    const float* v = (sparse ? csr_values_ : dense_).data() + r.start;
    double s = 0.0;
    for (uint32_t j = 0; j < nnz; ++j) s += static_cast<double>(v[j]) * v[j];
    rows_[i] = r;
    norms_[i] = std::sqrt(s);
    screen_stats_.Add(norms_[i]);
  }
  DIVERSE_CHECK(p == end && dense_at == dense_.size() &&
                csr_at == csr_values_.size());
}

void Dataset::Resize(size_t rows, size_t dense_values, size_t sparse_entries) {
  // Pools first, then the per-row arrays. Allocation order decides where
  // glibc places the blocks: building stream-text-cosine's 200k documents
  // with the per-row arrays first measured twice the time and +19 MB peak
  // RSS.
  dense_.resize(dense_values);
  csr_indices_.resize(sparse_entries);
  csr_values_.resize(sparse_entries);
  rows_.resize(rows);
  norms_.resize(rows);
}

// Inlined into each copy loop, where the cursors stay in registers.
[[gnu::always_inline]] inline Dataset::RowRef Dataset::CopyRow(
    bool sparse, uint32_t nnz, const void* indices, const void* values,
    size_t* dense_at, size_t* csr_at) {
  size_t& at = sparse ? *csr_at : *dense_at;
  Column<float>& pool = sparse ? csr_values_ : dense_;
  DIVERSE_CHECK_LE(nnz, pool.size() - at);
  const RowRef r{at, nnz, static_cast<uint8_t>(sparse ? 1 : 0)};
  // memcpy requires valid pointers even for zero bytes.
  if (nnz > 0) {
    std::memcpy(pool.data() + at, values, nnz * sizeof(float));
    if (sparse) {
      std::memcpy(csr_indices_.data() + at, indices, nnz * sizeof(uint32_t));
    }
  }
  at += nnz;
  if (sparse) {
    ++sparse_stats_.rows;
    sparse_stats_.total_nnz += nnz;
    sparse_stats_.max_nnz = std::max<size_t>(sparse_stats_.max_nnz, nnz);
  }
  return r;
}

void Dataset::Restamp() { content_stamp_ = NextContentStamp(); }

void Dataset::Reserve(size_t rows, size_t dense_values,
                      size_t sparse_entries) {
  dense_.reserve(dense_.size() + dense_values);
  csr_indices_.reserve(csr_indices_.size() + sparse_entries);
  csr_values_.reserve(csr_values_.size() + sparse_entries);
  rows_.reserve(rows_.size() + rows);
  norms_.reserve(norms_.size() + rows);
}

void Dataset::Clear() {
  dense_.clear();
  csr_indices_.clear();
  csr_values_.clear();
  rows_.clear();
  norms_.clear();
  dim_ = 0;
  sparse_stats_ = SparseStats();
  screen_stats_ = ScreenStats();
  content_stamp_ = NextContentStamp();
}

void Dataset::AssignGatherColumnar(const Dataset& src,
                                   std::span<const uint32_t> rows) {
  DIVERSE_CHECK(this != &src);
  size_t dense_total = 0;
  size_t csr_total = 0;
  for (uint32_t ri : rows) {
    const RowRef& rr = src.rows_[ri];
    (rr.sparse != 0 ? csr_total : dense_total) += rr.len;
  }
  dim_ = src.dim_;
  sparse_stats_ = SparseStats();
  screen_stats_ = ScreenStats();
  // Emptied first, so no old element is copied when a column grows; the
  // capacity a reused dataset already has is kept.
  Resize(0, 0, 0);
  Resize(rows.size(), dense_total, csr_total);
  size_t dense_at = 0;
  size_t csr_at = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    const kernels::VecView v = src.row(rows[i]);
    rows_[i] = CopyRow(v.sparse, static_cast<uint32_t>(v.nnz), v.indices,
                       v.values, &dense_at, &csr_at);
    norms_[i] = v.norm;
    screen_stats_.Add(v.norm);
  }
  content_stamp_ = NextContentStamp();
}

size_t Dataset::MemoryBytes() const {
  return sizeof(Dataset) + dense_.capacity() * sizeof(float) +
         csr_indices_.capacity() * sizeof(uint32_t) +
         csr_values_.capacity() * sizeof(float) +
         rows_.capacity() * sizeof(RowRef) + norms_.capacity() * sizeof(double);
}

}  // namespace diverse
