#include "core/exact.h"

#include <algorithm>
#include <limits>

#include "util/check.h"

namespace diverse {

namespace {

// Invokes `fn(subset)` for every k-subset of {0..n-1}, reusing one buffer.
template <typename Fn>
void ForEachSubset(size_t n, size_t k, Fn fn) {
  std::vector<size_t> subset(k);
  for (size_t i = 0; i < k; ++i) subset[i] = i;
  for (;;) {
    fn(subset);
    // Advance to the next combination in lexicographic order.
    size_t i = k;
    while (i > 0) {
      --i;
      if (subset[i] != i + n - k) {
        ++subset[i];
        for (size_t j = i + 1; j < k; ++j) subset[j] = subset[j - 1] + 1;
        break;
      }
      if (i == 0) return;
    }
    if (k == 0) return;
  }
}

constexpr size_t kMaxExactN = 24;

}  // namespace

ExactResult ExactDiversityMaximization(DiversityProblem problem,
                                       const DistanceMatrix& d, size_t k) {
  size_t n = d.size();
  DIVERSE_CHECK_GE(k, 1u);
  DIVERSE_CHECK_LE(k, n);
  DIVERSE_CHECK_LE(n, kMaxExactN);

  ExactResult result;
  result.value = -std::numeric_limits<double>::infinity();
  ForEachSubset(n, k, [&](const std::vector<size_t>& subset) {
    double v = EvaluateDiversity(problem, d.Restrict(subset));
    if (v > result.value) {
      result.value = v;
      result.best_subset = subset;
    }
  });
  return result;
}

ExactResult ExactDiversityMaximization(DiversityProblem problem,
                                       std::span<const Point> points,
                                       const Metric& metric, size_t k) {
  return ExactDiversityMaximization(problem, DistanceMatrix(points, metric),
                                    k);
}

double ExactOptimalRange(const DistanceMatrix& d, size_t k) {
  size_t n = d.size();
  DIVERSE_CHECK_GE(k, 1u);
  DIVERSE_CHECK_LE(k, n);
  DIVERSE_CHECK_LE(n, kMaxExactN);

  double best = std::numeric_limits<double>::infinity();
  ForEachSubset(n, k, [&](const std::vector<size_t>& subset) {
    double range = 0.0;
    for (size_t p = 0; p < n; ++p) {
      double dist = std::numeric_limits<double>::infinity();
      for (size_t c : subset) dist = std::min(dist, d.at(p, c));
      range = std::max(range, dist);
    }
    best = std::min(best, range);
  });
  return best;
}

double ExactOptimalFarness(const DistanceMatrix& d, size_t k) {
  size_t n = d.size();
  DIVERSE_CHECK_GE(k, 1u);
  DIVERSE_CHECK_LE(k, n);
  DIVERSE_CHECK_LE(n, kMaxExactN);
  if (k < 2) {
    // A single point has farness 0 by the minimum-over-empty convention
    // (it has no pair).
    return 0.0;
  }

  double best = 0.0;
  ForEachSubset(n, k, [&](const std::vector<size_t>& subset) {
    double farness = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < subset.size(); ++i) {
      for (size_t j = i + 1; j < subset.size(); ++j) {
        farness = std::min(farness, d.at(subset[i], subset[j]));
      }
    }
    best = std::max(best, farness);
  });
  return best;
}

}  // namespace diverse
