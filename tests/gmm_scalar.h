// Scalar reference GMM for equivalence tests and microbenchmarks, and the
// farness of a selection.
//
// The classic farthest-first loop over Metric::Distance, with no Dataset,
// batching, screening or threading. The production Gmm (core/gmm.h) must
// return a GmmResult equal to this one byte for byte.

#ifndef DIVERSE_TESTS_GMM_SCALAR_H_
#define DIVERSE_TESTS_GMM_SCALAR_H_

#include <algorithm>
#include <cstddef>
#include <limits>
#include <span>

#include "core/gmm.h"
#include "core/metric.h"
#include "core/point.h"
#include "util/check.h"

namespace diverse {

// Out of line: inlined into a test body, GCC 12's speculative
// devirtualization of metric.Distance raises a spurious -Wstringop-overflow.
[[gnu::noinline]] inline GmmResult GmmScalar(std::span<const Point> points,
                                             const Metric& metric, size_t k,
                                             size_t first = 0) {
  size_t n = points.size();
  DIVERSE_CHECK_GE(k, 1u);
  DIVERSE_CHECK_LE(k, n);
  DIVERSE_CHECK_LT(first, n);

  GmmResult result;
  result.selected.reserve(k);
  result.selection_distance.reserve(k);
  result.assignment.assign(n, 0);
  result.distance_to_selected.assign(n,
                                     std::numeric_limits<double>::infinity());

  size_t current = first;
  result.selected.push_back(current);
  result.selection_distance.push_back(
      std::numeric_limits<double>::infinity());

  for (size_t step = 1; step <= k; ++step) {
    // Relax distances against the most recently added center, then pick the
    // farthest point as the next center. One pass per step: O(k n) total.
    const Point& c = points[current];
    size_t farthest = current;
    double farthest_dist = -1.0;
    for (size_t i = 0; i < n; ++i) {
      double dist = metric.Distance(points[i], c);
      if (dist < result.distance_to_selected[i]) {
        result.distance_to_selected[i] = dist;
        result.assignment[i] = result.selected.size() - 1;
      }
      if (result.distance_to_selected[i] > farthest_dist) {
        farthest_dist = result.distance_to_selected[i];
        farthest = i;
      }
    }
    if (step == k) {
      result.range = farthest_dist;
      break;
    }
    result.selected.push_back(farthest);
    result.selection_distance.push_back(farthest_dist);
    current = farthest;
  }
  return result;
}

/// Farness rho_T = min_{c in T} d(c, T \ {c}) of the rows `subset` of
/// `points` (the remote-edge value of the subset); 0 below two rows. Out
/// of line for the same reason as GmmScalar.
[[gnu::noinline]] inline double Farness(std::span<const Point> points,
                                          const Metric& metric,
                                          std::span<const size_t> subset) {
  if (subset.size() < 2) return 0.0;
  double best = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < subset.size(); ++i) {
    for (size_t j = i + 1; j < subset.size(); ++j) {
      best = std::min(best,
                      metric.Distance(points[subset[i]], points[subset[j]]));
    }
  }
  return best;
}

}  // namespace diverse

#endif  // DIVERSE_TESTS_GMM_SCALAR_H_
