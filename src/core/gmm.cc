#include "core/gmm.h"

#include <algorithm>
#include <limits>

#include "core/cover_tree.h"
#include "core/screen.h"
#include "util/check.h"

namespace diverse {

namespace {

// The k-sequential-sweep path: one screened relax-and-argmax sweep over all
// n rows per selected center. The public Gmm below routes here whenever the
// metric index is off, unsupported, or gated unprofitable.
GmmResult GmmFlat(const Dataset& data, const Metric& metric, size_t k,
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
    // single-query screen cannot pay (the multi-center tile sweeps have no
    // such gate — their fused kernel amortizes across the center block).
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

}  // namespace

GmmResult Gmm(const Dataset& data, const Metric& metric, size_t k,
              size_t first) {
  // Third screening tier: when the metric satisfies the triangle inequality
  // and the deterministic probe says the corpus has low doubling dimension,
  // build the metric index once and run the lazy-greedy traversal — bit-
  // identical selections, trajectories, assignments, and range, with per-
  // step work proportional to the contended frontier instead of n.
  if (UseIndexing(metric, data) && IndexProfitable(data, metric, k)) {
    CoverTree tree = CoverTree::Build(data, metric);
    return LazyGreedyGmm(data, tree, metric, k, first);
  }
  return GmmFlat(data, metric, k, first);
}

GmmResult Gmm(std::span<const Point> points, const Metric& metric, size_t k,
              size_t first) {
  return Gmm(Dataset(points), metric, k, first);
}

GmmResult GmmScalar(std::span<const Point> points, const Metric& metric,
                    size_t k, size_t first) {
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
