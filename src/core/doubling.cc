#include "core/doubling.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/check.h"
#include "util/rng.h"

namespace diverse {

namespace {

// Size of a greedy cover of `ball` (indices into `sample`) by balls of
// radius `radius` centered at members of `ball`. Greedy set cover by
// farthest-first traversal: repeatedly open a center at an uncovered point.
size_t GreedyCoverSize(const std::vector<size_t>& ball,
                       std::span<const Point> sample, const Metric& metric,
                       double radius) {
  std::vector<bool> covered(ball.size(), false);
  size_t centers = 0;
  for (size_t i = 0; i < ball.size(); ++i) {
    if (covered[i]) continue;
    ++centers;
    covered[i] = true;
    for (size_t j = i + 1; j < ball.size(); ++j) {
      if (!covered[j] &&
          metric.Distance(sample[ball[i]], sample[ball[j]]) <= radius) {
        covered[j] = true;
      }
    }
  }
  return centers;
}

}  // namespace

DoublingEstimate EstimateDoublingDimension(
    std::span<const Point> points, const Metric& metric,
    const DoublingEstimateOptions& options) {
  DIVERSE_CHECK_GE(points.size(), 2u);
  Rng rng(options.seed);

  // Subsample for tractability; the doubling dimension of a subsample lower
  // bounds the true one, which is the safe direction for choosing k'.
  std::vector<Point> sample;
  if (points.size() > options.max_sample) {
    sample.reserve(options.max_sample);
    for (size_t i = 0; i < options.max_sample; ++i) {
      sample.push_back(points[rng.NextBounded(points.size())]);
    }
  } else {
    sample.assign(points.begin(), points.end());
  }

  DoublingEstimate est;
  for (size_t c = 0; c < options.num_centers; ++c) {
    size_t center = rng.NextBounded(sample.size());
    // Base radius: distance to a random other point (probes balls at the
    // data's natural scales rather than arbitrary absolute radii).
    size_t other = rng.NextBounded(sample.size());
    double base = metric.Distance(sample[center], sample[other]);
    if (base <= 0.0) continue;
    double r = base;
    for (size_t s = 0; s < options.num_scales; ++s, r /= 2.0) {
      std::vector<size_t> ball;
      for (size_t i = 0; i < sample.size(); ++i) {
        if (metric.Distance(sample[center], sample[i]) <= r) {
          ball.push_back(i);
        }
      }
      if (ball.size() < 2) break;
      size_t cover = GreedyCoverSize(ball, sample, metric, r / 2.0);
      est.worst_cover_size = std::max(est.worst_cover_size, cover);
      ++est.probes;
    }
  }
  if (est.worst_cover_size > 0) {
    est.dimension = std::log2(static_cast<double>(est.worst_cover_size));
  }
  return est;
}

}  // namespace diverse
