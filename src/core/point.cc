#include "core/point.h"

#include <cmath>
#include <sstream>

#include "util/check.h"

namespace diverse {

Point Point::Dense(std::vector<float> values) {
  Point p;
  p.dim_ = values.size();
  p.values_ = std::move(values);
  p.is_sparse_ = false;
  p.ComputeNorm();
  return p;
}

Point Point::Dense2(float x, float y) { return Dense({x, y}); }

Point Point::Dense3(float x, float y, float z) { return Dense({x, y, z}); }

Point Point::Sparse(std::vector<uint32_t> indices, std::vector<float> values,
                    uint32_t dim) {
  DIVERSE_CHECK_EQ(indices.size(), values.size());
  for (size_t i = 0; i + 1 < indices.size(); ++i) {
    DIVERSE_CHECK_LT(indices[i], indices[i + 1]);
  }
  if (!indices.empty()) DIVERSE_CHECK_LT(indices.back(), dim);
  Point p;
  p.dim_ = dim;
  p.indices_ = std::move(indices);
  p.values_ = std::move(values);
  p.is_sparse_ = true;
  p.ComputeNorm();
  return p;
}

Point& Point::Assign(const kernels::VecView& v) {
  dim_ = v.dim;
  is_sparse_ = v.sparse;
  values_.assign(v.values, v.values + v.nnz);
  indices_.assign(v.indices, v.indices + (v.sparse ? v.nnz : 0));
  norm_ = v.norm;
  return *this;
}

const std::vector<float>& Point::dense_values() const {
  DIVERSE_CHECK(!is_sparse_);
  return values_;
}

const std::vector<uint32_t>& Point::sparse_indices() const {
  DIVERSE_CHECK(is_sparse_);
  return indices_;
}

const std::vector<float>& Point::sparse_values() const {
  DIVERSE_CHECK(is_sparse_);
  return values_;
}

void Point::ComputeNorm() {
  double s = 0.0;
  for (float v : values_) s += static_cast<double>(v) * v;
  norm_ = std::sqrt(s);
}

// The representation dispatch and accumulation order live in
// core/vector_kernels.h, shared with the batched columnar kernels so the two
// paths stay bit-identical.

double Point::Dot(const Point& other) const {
  DIVERSE_CHECK_EQ(dim_, other.dim_);
  return kernels::Dot(View(), other.View());
}

double Point::SquaredEuclideanDistanceTo(const Point& other) const {
  DIVERSE_CHECK_EQ(dim_, other.dim_);
  return kernels::SquaredEuclidean(View(), other.View());
}

double Point::L1DistanceTo(const Point& other) const {
  DIVERSE_CHECK_EQ(dim_, other.dim_);
  return kernels::L1(View(), other.View());
}

double Point::SupportJaccardDistanceTo(const Point& other) const {
  DIVERSE_CHECK_EQ(dim_, other.dim_);
  return kernels::SupportJaccard(View(), other.View());
}

bool Point::operator==(const Point& other) const {
  return is_sparse_ == other.is_sparse_ && dim_ == other.dim_ &&
         indices_ == other.indices_ && values_ == other.values_;
}

std::string Point::ToString() const {
  std::ostringstream out;
  if (is_sparse_) {
    out << "sparse{";
    for (size_t i = 0; i < indices_.size(); ++i) {
      if (i) out << ", ";
      out << indices_[i] << ":" << values_[i];
    }
    out << " | dim=" << dim_ << "}";
  } else {
    out << "(";
    for (size_t i = 0; i < values_.size(); ++i) {
      if (i) out << ", ";
      out << values_[i];
    }
    out << ")";
  }
  return out.str();
}

size_t Point::MemoryBytes() const {
  return sizeof(Point) + indices_.capacity() * sizeof(uint32_t) +
         values_.capacity() * sizeof(float);
}

bool PointIsFinite(const Point& p) {
  const std::vector<float>& vals =
      p.is_sparse() ? p.sparse_values() : p.dense_values();
  for (float v : vals) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

}  // namespace diverse
