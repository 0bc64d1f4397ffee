#include "core/gmm.h"

#include <algorithm>
#include <limits>

#include "core/screen.h"
#include "util/check.h"

namespace diverse {

GmmResult Gmm(const Dataset& data, const Metric& metric, size_t k,
              size_t first) {
  size_t n = data.size();
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

  std::span<double> dist(result.distance_to_selected);
  std::span<size_t> assignment(result.assignment);
  for (size_t step = 1; step <= k; ++step) {
    // Relax distances against the most recently added center and pick the
    // farthest point as the next center, in one fused sweep per step. The
    // sweep is screened (fp32 pass + exact rescue of rows the new center
    // could improve — the center is a dataset row, so the rescue runs on
    // columnar views); selections, trajectories, and the final range are
    // bit-identical to the exact path, which it falls back to when
    // screening is off or the per-row work gate of core/screen.cc says a
    // single-query screen cannot pay.
    size_t farthest = ScreenedRelaxArgFarthest(
        metric, data, current, data, dist, assignment,
        result.selected.size() - 1);
    double farthest_dist = result.distance_to_selected[farthest];
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

double Farness(std::span<const Point> points, const Metric& metric,
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
