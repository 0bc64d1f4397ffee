#include "core/gmm.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "core/screen.h"
#include "util/check.h"

namespace diverse {

namespace {

// The bound that skips no row: no dist is at most -inf.
constexpr double kSkipNothing = -std::numeric_limits<double>::infinity();

// The largest dist a row assigned to center a may hold and still be
// certified unimprovable by the new center c, given the computed center
// distance D = d(c, c_a); kSkipNothing when no positive bound can be
// certified.
//
// Metric::IndexSlack certifies |x - t| <= rel * x + abs for every computed
// distance x of true value t. Let x = dist[i] = d(c_a, i) and y = d(c, i)
// be computed, with true values x*, y*, D*. The triangle inequality gives
// y* >= D* - x*, with D* >= D(1 - rel) - abs and x* <= x(1 + rel) + abs,
// and the computed y satisfies y >= (y* - abs) / (1 + rel). Hence
//   y >= (D(1 - rel) - 3 abs) / (1 + rel) - x,
// which is >= x, so the strict relax y < x cannot fire, whenever
//   x <= (D(1 - rel) - 3 abs) / (2 (1 + rel)).
// The bound below, ((D - abs)(1 - rel) / (1 + rel) - 2 abs) / 2, is that
// threshold minus abs * rel / (2 (1 + rel)), so never larger. The
// (1 - 8u) and (1 - 2u) factors (u the double epsilon) round each step
// down: the first covers the roundings of the quotient, the second the
// subtraction and the factor's own product; the halving is exact for the
// normal results the last test admits. Non-finite and degenerate inputs
// (rel >= 1, an unbounded slack, NaN) give kSkipNothing.
double SkipBound(double center_dist, const ScreenBound& slack) {
  constexpr double kU = std::numeric_limits<double>::epsilon();
  const double reach = (center_dist - slack.abs) * (1.0 - slack.rel) /
                       (1.0 + slack.rel) * (1.0 - 8.0 * kU);
  const double bound = (reach - 2.0 * slack.abs) * (1.0 - 2.0 * kU) / 2.0;
  if (bound >= std::numeric_limits<double>::min() &&
      bound < std::numeric_limits<double>::infinity()) {
    return bound;
  }
  return kSkipNothing;
}

}  // namespace

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

  const bool indexing = UseIndexing(metric, data);
  const ScreenBound slack = indexing ? metric.IndexSlack(data) : ScreenBound{};
  // Where the metric screens this layout, the center-to-center distances
  // are fp32 values lowered by the certified screening bound
  // (ScreenedLower, the lower bound generalized-coreset instantiation also
  // certifies with): a lower bound of the computed distance only shrinks
  // SkipBound, so the skip stays sound, and the k(k-1)/2 center pairs cost
  // no exact evaluation. Elsewhere they are exact.
  const ScreenSideStats stats = SideStatsOf(data);
  const bool screen_centers = indexing && UseScreening(metric, stats, stats);
  const ScreenBound screen =
      screen_centers ? metric.ScreenErrorBound(stats, stats, data.dim())
                     : ScreenBound{};
  std::vector<uint32_t> centers;  // the previous centers, in rank order
  std::vector<float> screened;    // their screened distances to the new one
  std::vector<double> skip_at;    // SkipBound per previous center
  std::span<double> dist(result.distance_to_selected);
  std::span<size_t> assignment(result.assignment);
  for (size_t step = 1; step <= k; ++step) {
    // Relax distances against the most recently added center and pick the
    // farthest point as the next center, in one fused sweep per step. With
    // indexing, the new center's distances to the previous centers bound
    // which rows it could improve (SkipBound); the sweep never reads the
    // others. The rest is screened (fp32 pass + exact rescue of rows the
    // new center could improve) where the metric's gates allow it.
    // Selections, trajectories, and the final range are bit-identical to
    // the exact flat sweep either way.
    if (screen_centers && !centers.empty()) {
      screened.resize(centers.size());
      skip_at.resize(centers.size());
      metric.DistanceRowsManyF32(data, current, data, centers,
                                 screened.data());
      for (size_t a = 0; a < centers.size(); ++a) {
        skip_at[a] = SkipBound(ScreenedLower(screened[a], screen), slack);
      }
    } else if (indexing && !centers.empty()) {
      skip_at.resize(centers.size());
      metric.DistanceRowsMany(data, current, data, centers, skip_at.data());
      for (double& d : skip_at) d = SkipBound(d, slack);
    }
    // A step none of whose bounds can rule a row out (every one
    // kSkipNothing, as on sparse text under cosine or Jaccard, whose whole
    // range is too narrow to certify any) passes no bounds, so the sweep
    // does not pay a per-row test that cannot fire.
    std::span<const double> step_skip_at = skip_at;
    if (!skip_at.empty() && std::ranges::max(skip_at) == kSkipNothing) {
      step_skip_at = {};
    }
    size_t farthest = ScreenedRelaxArgFarthest(
        metric, data, current, dist, assignment,
        result.selected.size() - 1, step_skip_at);
    double farthest_dist = result.distance_to_selected[farthest];
    if (step == k) {
      result.range = farthest_dist;
      break;
    }
    if (indexing) centers.push_back(static_cast<uint32_t>(current));
    result.selected.push_back(farthest);
    result.selection_distance.push_back(farthest_dist);
    current = farthest;
  }
  return result;
}

}  // namespace diverse
