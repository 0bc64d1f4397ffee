#include "core/distance_matrix.h"

#include <algorithm>

#include "util/check.h"
#include "util/thread_pool.h"

namespace diverse {

namespace {

// Rows per tile block. Diagonal blocks run per-row suffix sweeps of at most
// kMatrixBlock - 1 distances, which Metric::DistanceToMany executes inline
// (below its parallel grain), so the block-pair parallel loop never nests
// pool waits.
constexpr size_t kMatrixBlock = 128;

// Builds of at least this many points take the columnar tile path; below it
// the per-pair scalar loop wins (no Dataset re-layout).
constexpr size_t kTiledBuildMin = 64;

}  // namespace

DistanceMatrix::DistanceMatrix(size_t n) : n_(n), d_(n * n, 0.0) {}

DistanceMatrix::DistanceMatrix(std::span<const Point> points,
                               const Metric& metric)
    : n_(points.size()), d_(points.size() * points.size(), 0.0) {
  bool uniform_dims = true;
  for (size_t i = 1; i < n_ && uniform_dims; ++i) {
    uniform_dims = points[i].dim() == points[0].dim();
  }
  if (n_ >= kTiledBuildMin && uniform_dims) {
    BuildTiled(Dataset(points), metric);
    return;
  }
  for (size_t i = 0; i < n_; ++i) {
    for (size_t j = i + 1; j < n_; ++j) {
      double dist = metric.Distance(points[i], points[j]);
      d_[i * n_ + j] = dist;
      d_[j * n_ + i] = dist;
    }
  }
}

DistanceMatrix::DistanceMatrix(const Dataset& data, const Metric& metric)
    : n_(data.size()), d_(data.size() * data.size(), 0.0) {
  BuildTiled(data, metric);
}

void DistanceMatrix::BuildTiled(const Dataset& data, const Metric& metric) {
  size_t nb = (n_ + kMatrixBlock - 1) / kMatrixBlock;
  // Unordered block pairs (bi <= bj), enumerated row-major; each pair is an
  // independent cache-resident tile, so the parallel loop is deterministic
  // trivially (disjoint writes, no reductions).
  size_t num_pairs = nb * (nb + 1) / 2;
  GlobalThreadPool().ParallelForRanges(
      num_pairs, 1, [&](size_t lo, size_t hi) {
        for (size_t idx = lo; idx < hi; ++idx) {
          // Decode idx -> (bi, bj) with bi <= bj.
          size_t bi = 0;
          size_t rem = idx;
          size_t row_len = nb;
          while (rem >= row_len) {
            rem -= row_len;
            ++bi;
            --row_len;
          }
          size_t bj = bi + rem;
          size_t ib = bi * kMatrixBlock;
          size_t in = std::min(kMatrixBlock, n_ - ib);
          if (bi == bj) {
            // Diagonal block: per-row suffix sweeps keep the evaluation
            // count at exactly i < j pairs.
            for (size_t i = ib; i + 1 < ib + in; ++i) {
              std::span<double> out(d_.data() + i * n_ + i + 1,
                                    ib + in - i - 1);
              metric.DistanceToMany(data.point(i), data, i + 1, out);
              for (size_t j = i + 1; j < ib + in; ++j) {
                d_[j * n_ + i] = d_[i * n_ + j];
              }
            }
          } else {
            size_t jb = bj * kMatrixBlock;
            size_t jn = std::min(kMatrixBlock, n_ - jb);
            metric.DistanceTile(data, ib, in, data, jb, jn,
                                d_.data() + ib * n_ + jb, n_);
            for (size_t q = 0; q < in; ++q) {
              for (size_t r = 0; r < jn; ++r) {
                d_[(jb + r) * n_ + ib + q] = d_[(ib + q) * n_ + jb + r];
              }
            }
          }
        }
      });
}

void DistanceMatrix::set(size_t i, size_t j, double value) {
  DIVERSE_CHECK_LT(i, n_);
  DIVERSE_CHECK_LT(j, n_);
  DIVERSE_CHECK_GE(value, 0.0);
  d_[i * n_ + j] = value;
  d_[j * n_ + i] = value;
}

DistanceMatrix DistanceMatrix::Restrict(std::span<const size_t> subset) const {
  DistanceMatrix out(subset.size());
  for (size_t i = 0; i < subset.size(); ++i) {
    DIVERSE_CHECK_LT(subset[i], n_);
    for (size_t j = i + 1; j < subset.size(); ++j) {
      out.set(i, j, at(subset[i], subset[j]));
    }
  }
  return out;
}

}  // namespace diverse
