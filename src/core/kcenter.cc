#include "core/kcenter.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "core/cover_tree.h"
#include "core/gmm.h"
#include "core/screen.h"
#include "util/check.h"

namespace diverse {

KCenterResult SolveKCenterGmm(const Dataset& data, const Metric& metric,
                              size_t k) {
  GmmResult gmm = Gmm(data, metric, k);
  KCenterResult result;
  result.centers = std::move(gmm.selected);
  result.assignment = std::move(gmm.assignment);
  result.radius = gmm.range;
  return result;
}

KCenterResult SolveKCenterGmm(std::span<const Point> points,
                              const Metric& metric, size_t k) {
  return SolveKCenterGmm(Dataset(points), metric, k);
}

namespace {

// One maximal-independent-set merge over center indices at the given radius.
std::vector<size_t> MergeCenters(std::span<const Point> points,
                                 const Metric& metric,
                                 const std::vector<size_t>& centers,
                                 double radius) {
  std::vector<size_t> kept;
  kept.reserve(centers.size());
  for (size_t c : centers) {
    bool blocked = false;
    for (size_t other : kept) {
      if (metric.Distance(points[c], points[other]) <= radius) {
        blocked = true;
        break;
      }
    }
    if (!blocked) kept.push_back(c);
  }
  return kept;
}

}  // namespace

KCenterResult SolveKCenterDoubling(std::span<const Point> points,
                                   const Metric& metric, size_t k) {
  size_t n = points.size();
  DIVERSE_CHECK_GE(k, 1u);
  DIVERSE_CHECK_LE(k, n);

  std::vector<size_t> centers;
  double threshold = 0.0;

  if (n <= k) {
    centers.resize(n);
    for (size_t i = 0; i < n; ++i) centers[i] = i;
  } else {
    // Initialization: first k+1 points, d_1 = their min pairwise distance.
    for (size_t i = 0; i <= k; ++i) centers.push_back(i);
    threshold = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i <= k; ++i) {
      for (size_t j = i + 1; j <= k; ++j) {
        threshold =
            std::min(threshold, metric.Distance(points[i], points[j]));
      }
    }
    auto shrink = [&] {
      for (;;) {
        centers = MergeCenters(points, metric, centers, 2.0 * threshold);
        if (centers.size() <= k) return;
        if (threshold > 0.0) {
          threshold *= 2.0;
        } else {
          double min_positive = std::numeric_limits<double>::infinity();
          for (size_t i = 0; i < centers.size(); ++i) {
            for (size_t j = i + 1; j < centers.size(); ++j) {
              double d =
                  metric.Distance(points[centers[i]], points[centers[j]]);
              if (d > 0.0) min_positive = std::min(min_positive, d);
            }
          }
          DIVERSE_CHECK_LT(min_positive,
                           std::numeric_limits<double>::infinity());
          threshold = min_positive;
        }
      }
    };
    shrink();
    for (size_t i = k + 1; i < n; ++i) {
      double dist = std::numeric_limits<double>::infinity();
      for (size_t c : centers) {
        dist = std::min(dist, metric.Distance(points[i], points[c]));
      }
      if (dist > 4.0 * threshold) {
        centers.push_back(i);
        if (centers.size() == k + 1) {
          threshold *= 2.0;
          shrink();
        }
      }
    }
  }

  KCenterResult result;
  result.centers = std::move(centers);
  result.assignment.assign(n, 0);
  // Final assignment: one blocked multi-center tile pass over the columnar
  // rows (every row block is loaded once for all centers instead of once per
  // center), recording the rank of the first nearest center exactly like the
  // per-center relax sweeps did. The pass is screened through the fused
  // Metric::ScreenedRelaxTile kernel: fp32 lane values prove most
  // (center, row) pairs cannot improve the row's distance without ever
  // materializing an fp32 tile, and only band hits are re-evaluated
  // exactly — assignment, radius, and ties are bit-identical to the exact
  // tile pass.
  const Dataset data(points);
  const std::vector<uint32_t> center_ids(result.centers.begin(),
                                         result.centers.end());
  Dataset center_rows;
  center_rows.AssignGatherColumnar(data, center_ids);
  std::vector<double> dist(n, std::numeric_limits<double>::infinity());
  size_t farthest;
  // When both sides are large and the centers' statistics are dominated by
  // the data's (OneShotIndexProfitable), a one-shot cover-tree traversal
  // prunes whole row ranges per center before the tile screen even runs —
  // still bit-identical.
  if (OneShotIndexProfitable(metric, center_rows, center_rows.size(), data)) {
    CoverTree tree = CoverTree::Build(data, metric);
    farthest = IndexedRelaxTilesAndArgFarthest(metric, center_rows, 0,
                                               center_rows.size(), 0, tree,
                                               dist, result.assignment);
  } else {
    farthest = ScreenedRelaxTilesAndArgFarthest(
        metric, center_rows, 0, center_rows.size(), 0, data, dist,
        result.assignment);
  }
  result.radius = dist[farthest];
  return result;
}

double ClusteringRadius(const Dataset& data, const Metric& metric,
                        std::span<const size_t> centers) {
  DIVERSE_CHECK(!centers.empty());
  const std::vector<uint32_t> center_ids(centers.begin(), centers.end());
  Dataset center_rows;
  center_rows.AssignGatherColumnar(data, center_ids);
  std::vector<double> dist(data.size(),
                           std::numeric_limits<double>::infinity());
  size_t farthest;
  if (OneShotIndexProfitable(metric, center_rows, center_rows.size(), data)) {
    CoverTree tree = CoverTree::Build(data, metric);
    farthest = IndexedRelaxTilesAndArgFarthest(
        metric, center_rows, 0, center_rows.size(), 0, tree, dist);
  } else {
    farthest = ScreenedRelaxTilesAndArgFarthest(
        metric, center_rows, 0, center_rows.size(), 0, data, dist);
  }
  return dist[farthest];
}

double ClusteringRadius(std::span<const Point> points, const Metric& metric,
                        std::span<const size_t> centers) {
  return ClusteringRadius(Dataset(points), metric, centers);
}

}  // namespace diverse
