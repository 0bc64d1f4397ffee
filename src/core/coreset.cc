#include "core/coreset.h"

#include "util/check.h"

namespace diverse {

Coreset GmmCoreset(const Dataset& data, const Metric& metric,
                   size_t k_prime) {
  GmmResult gmm = Gmm(data, metric, k_prime);
  Coreset out;
  out.points.reserve(gmm.selected.size());
  out.indices = gmm.selected;
  for (size_t idx : gmm.selected) out.points.push_back(data.point(idx));
  return out;
}

Coreset GmmCoreset(std::span<const Point> points, const Metric& metric,
                   size_t k_prime) {
  return GmmCoreset(Dataset(points), metric, k_prime);
}

Coreset GmmExtCoreset(const Dataset& data, const Metric& metric,
                      size_t k_prime, size_t delegates_per_cluster) {
  size_t n = data.size();
  DIVERSE_CHECK_GE(k_prime, 1u);
  DIVERSE_CHECK_LE(k_prime, n);
  GmmResult gmm = Gmm(data, metric, k_prime);

  // Collect each cluster's members; gmm.assignment already breaks ties
  // toward the earliest-selected center, matching the C_j of Algorithm 1.
  Coreset out;
  out.points.reserve(k_prime);
  out.indices.reserve(k_prime);
  std::vector<std::vector<size_t>> cluster(k_prime);
  for (size_t i = 0; i < n; ++i) {
    cluster[gmm.assignment[i]].push_back(i);
  }
  for (size_t j = 0; j < k_prime; ++j) {
    size_t center = gmm.selected[j];
    out.points.push_back(data.point(center));
    out.indices.push_back(center);
    size_t taken = 0;
    for (size_t member : cluster[j]) {
      if (member == center) continue;
      if (taken == delegates_per_cluster) break;
      out.points.push_back(data.point(member));
      out.indices.push_back(member);
      ++taken;
    }
  }
  return out;
}

Coreset GmmExtCoreset(std::span<const Point> points, const Metric& metric,
                      size_t k_prime, size_t delegates_per_cluster) {
  return GmmExtCoreset(Dataset(points), metric, k_prime,
                       delegates_per_cluster);
}

}  // namespace diverse
