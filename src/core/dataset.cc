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

size_t FirstNonFiniteRow(const Dataset& data) {
  for (size_t i = 0; i < data.size(); ++i) {
    const kernels::VecView v = data.row(i);
    if (!std::all_of(v.values, v.values + v.nnz,
                     [](float x) { return std::isfinite(x); })) {
      return i;
    }
  }
  return data.size();
}

Dataset::Dataset(std::span<const Point> points) {
  size_t dense_total = 0;
  size_t csr_total = 0;
  for (const Point& p : points) {
    (p.is_sparse() ? csr_total : dense_total) += p.nnz();
  }
  Reserve(points.size(), dense_total, csr_total);
  for (const Point& p : points) Append(p);
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
  if (rows_.empty()) {
    dim_ = p.dim();
  } else {
    DIVERSE_CHECK_EQ(p.dim(), dim_);
  }
  content_stamp_ = NextContentStamp();
  RowRef r;
  if (p.is_sparse()) {
    const auto& idx = p.sparse_indices();
    const auto& val = p.sparse_values();
    r.start = csr_values_.size();
    r.len = static_cast<uint32_t>(val.size());
    r.sparse = 1;
    csr_indices_.insert(csr_indices_.end(), idx.begin(), idx.end());
    csr_values_.insert(csr_values_.end(), val.begin(), val.end());
    ++sparse_stats_.rows;
    sparse_stats_.total_nnz += val.size();
    sparse_stats_.max_nnz = std::max<size_t>(sparse_stats_.max_nnz,
                                             val.size());
  } else {
    const auto& val = p.dense_values();
    r.start = dense_.size();
    r.len = static_cast<uint32_t>(val.size());
    r.sparse = 0;
    dense_.insert(dense_.end(), val.begin(), val.end());
  }
  rows_.push_back(r);
  norms_.push_back(p.norm());
  screen_stats_.Add(p.norm());
}

void Dataset::AppendRowBytes(bool sparse, uint32_t dim, uint32_t nnz,
                             const void* indices, const void* values) {
  if (rows_.empty()) {
    dim_ = dim;
  } else {
    DIVERSE_CHECK_EQ(dim, dim_);
  }
  content_stamp_ = 0;
  RowRef r;
  r.len = nnz;
  r.sparse = sparse ? 1 : 0;
  std::vector<float>& pool = sparse ? csr_values_ : dense_;
  r.start = pool.size();
  pool.resize(r.start + nnz);
  // memcpy requires valid pointers even for zero bytes.
  if (nnz > 0) std::memcpy(pool.data() + r.start, values, nnz * sizeof(float));
  if (sparse) {
    csr_indices_.resize(r.start + nnz);
    if (nnz > 0) {
      std::memcpy(csr_indices_.data() + r.start, indices,
                  nnz * sizeof(uint32_t));
    }
    ++sparse_stats_.rows;
    sparse_stats_.total_nnz += nnz;
    sparse_stats_.max_nnz = std::max<size_t>(sparse_stats_.max_nnz, nnz);
  }
  // Point::ComputeNorm's sum, term for term.
  const float* v = pool.data() + r.start;
  double s = 0.0;
  for (uint32_t j = 0; j < nnz; ++j) s += static_cast<double>(v[j]) * v[j];
  const double norm = std::sqrt(s);
  rows_.push_back(r);
  norms_.push_back(norm);
  screen_stats_.Add(norm);
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
  Clear();
  dim_ = src.dim_;
  rows_.reserve(rows.size());
  norms_.reserve(rows.size());
  size_t dense_total = 0;
  size_t csr_total = 0;
  for (uint32_t ri : rows) {
    const RowRef& rr = src.rows_[ri];
    (rr.sparse != 0 ? csr_total : dense_total) += rr.len;
  }
  dense_.reserve(dense_total);
  csr_indices_.reserve(csr_total);
  csr_values_.reserve(csr_total);
  for (uint32_t ri : rows) {
    const RowRef& rr = src.rows_[ri];
    RowRef out = rr;
    if (rr.sparse != 0) {
      out.start = csr_values_.size();
      csr_indices_.insert(csr_indices_.end(),
                          src.csr_indices_.begin() + rr.start,
                          src.csr_indices_.begin() + rr.start + rr.len);
      csr_values_.insert(csr_values_.end(),
                         src.csr_values_.begin() + rr.start,
                         src.csr_values_.begin() + rr.start + rr.len);
      ++sparse_stats_.rows;
      sparse_stats_.total_nnz += rr.len;
      sparse_stats_.max_nnz = std::max<size_t>(sparse_stats_.max_nnz, rr.len);
    } else {
      out.start = dense_.size();
      dense_.insert(dense_.end(), src.dense_.begin() + rr.start,
                    src.dense_.begin() + rr.start + rr.len);
    }
    rows_.push_back(out);
    norms_.push_back(src.norms_[ri]);
    screen_stats_.Add(src.norms_[ri]);
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
