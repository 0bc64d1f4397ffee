#include "core/dataset.h"

#include <algorithm>
#include <atomic>
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

Dataset::Dataset(std::span<const Point> points) { Assign(points); }

StatusOr<Dataset> Dataset::TryFromPoints(std::span<const Point> points) {
  for (size_t i = 1; i < points.size(); ++i) {
    if (points[i].dim() != points[0].dim()) {
      return InvalidArgumentError(
          "point " + std::to_string(i) + " has dim " +
          std::to_string(points[i].dim()) + " but point 0 has dim " +
          std::to_string(points[0].dim()));
    }
  }
  return Dataset(points);
}

Point Dataset::point(size_t i) const {
  Point p;
  p.Assign(row(i));
  return p;
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

void Dataset::Assign(std::span<const Point> points) {
  Clear();
  size_t dense_total = 0;
  size_t csr_total = 0;
  for (const Point& p : points) {
    (p.is_sparse() ? csr_total : dense_total) += p.nnz();
  }
  dense_.reserve(dense_total);
  csr_indices_.reserve(csr_total);
  csr_values_.reserve(csr_total);
  rows_.reserve(points.size());
  norms_.reserve(points.size());
  for (const Point& p : points) Append(p);
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
