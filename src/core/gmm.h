// GMM: the farthest-first traversal of Gonzalez [18].
//
// GMM(S, k) greedily grows a set T: start from an arbitrary point, then
// repeatedly add the point of S maximizing the distance to the points picked
// so far. Classic guarantees used throughout the paper:
//   * r_T <= 2 r*_k            (2-approximation for k-center),
//   * r_T <= rho_T             (the "anticover" property, Fact 1),
//   * the k-prefix of the selection is a 2-approximation for remote-edge and
//     constant-factor for remote-tree / remote-cycle (Table 1).
// With k' > k it is the composable core-set construction of Theorem 4.

#ifndef DIVERSE_CORE_GMM_H_
#define DIVERSE_CORE_GMM_H_

#include <cstddef>
#include <vector>

#include "core/dataset.h"
#include "core/metric.h"

namespace diverse {

/// Result of a farthest-first traversal.
struct GmmResult {
  /// Indices (into the input set) of the selected points, in selection order.
  std::vector<size_t> selected;

  /// selection_distance[j] = distance of selected[j] to the set of previously
  /// selected points at the time it was chosen (infinity for j = 0). This
  /// sequence is non-increasing; selection_distance[k] upper-bounds r_T of
  /// the k-prefix (anticover property).
  std::vector<double> selection_distance;

  /// assignment[i] = position in `selected` of the center closest to input
  /// point i, with ties broken toward the earliest-selected center (this
  /// matches the cluster definition C_j of Algorithm 1, GMM-EXT).
  std::vector<size_t> assignment;

  /// distance_to_selected[i] = d(points[i], T) for the final T.
  std::vector<double> distance_to_selected;

  /// max_i distance_to_selected[i], i.e. the range r_T of the final set.
  double range = 0.0;
};

/// Runs GMM for k steps on columnar `data` under `metric`, starting from
/// row `first`. Requires 1 <= k <= data.size() and first < data.size().
/// Each step is one fused relax-and-argmax sweep (ScreenedRelaxArgFarthest)
/// against the newest center, devirtualized over the columnar rows and
/// parallelized for large n. When UseIndexing(metric, data) holds
/// (KernelPolicy::indexing), a step first evaluates the new center against
/// the previous ones and skips every row the triangle inequality shows it
/// cannot improve. Cost: at most k * n relax evaluations plus k(k-1)/2
/// center-to-center ones (screened where the metric screens the layout,
/// exact otherwise); exactly k * n with indexing off. The result is
/// deterministic and identical to the scalar reference (tests/gmm_scalar.h)
/// at any thread count, with indexing on or off.
GmmResult Gmm(const Dataset& data, const Metric& metric, size_t k,
              size_t first = 0);

}  // namespace diverse

#endif  // DIVERSE_CORE_GMM_H_
