// Empirical doubling-dimension estimation.
//
// The paper's guarantees are parameterized by the doubling dimension D of
// the metric space: every ball of radius r is coverable by at most 2^D balls
// of radius r/2. D is rarely known for real data (the paper notes the
// musiXmatch corpus's "doubling dimension is unknown"), so this module
// estimates it empirically: for sampled centers and radii, it greedily
// covers each ball B(c, r) with balls of radius r/2 and reports
// log2(max cover size). The estimate guides the choice of k' (theory wants
// k' ~ (c/eps)^D k).

#ifndef DIVERSE_CORE_DOUBLING_H_
#define DIVERSE_CORE_DOUBLING_H_

#include <cstddef>
#include <cstdint>
#include <span>

#include "core/metric.h"
#include "core/point.h"

namespace diverse {

/// Parameters for the doubling-dimension estimator.
struct DoublingEstimateOptions {
  /// Number of sampled ball centers.
  size_t num_centers = 32;
  /// Number of radius scales probed per center (r, r/2, r/4, ...).
  size_t num_scales = 3;
  /// Sample size drawn from the input when it is larger (the estimator is
  /// quadratic in this).
  size_t max_sample = 2000;
  uint64_t seed = 1;
};

/// Result of the estimation.
struct DoublingEstimate {
  /// Estimated doubling dimension: log2 of the largest half-radius cover
  /// found over all probed balls.
  double dimension = 0.0;
  /// The largest half-radius cover size observed.
  size_t worst_cover_size = 0;
  /// Number of (center, scale) probes performed.
  size_t probes = 0;
};

/// Estimates the doubling dimension of `points` under `metric`.
/// Requires at least 2 points.
DoublingEstimate EstimateDoublingDimension(
    std::span<const Point> points, const Metric& metric,
    const DoublingEstimateOptions& options = {});

}  // namespace diverse

#endif  // DIVERSE_CORE_DOUBLING_H_
