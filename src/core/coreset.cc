#include "core/coreset.h"

#include "util/check.h"

namespace diverse {

std::vector<size_t> GmmCoreset(const Dataset& data, const Metric& metric,
                               size_t k_prime) {
  return Gmm(data, metric, k_prime).selected;
}

std::vector<size_t> GmmExtCoreset(const Dataset& data, const Metric& metric,
                                  size_t k_prime,
                                  size_t delegates_per_cluster) {
  size_t n = data.size();
  DIVERSE_CHECK_GE(k_prime, 1u);
  DIVERSE_CHECK_LE(k_prime, n);
  GmmResult gmm = Gmm(data, metric, k_prime);

  // Collect the first members of each cluster; gmm.assignment already
  // breaks ties toward the earliest-selected center, matching the C_j of
  // Algorithm 1. The output takes at most delegates_per_cluster members
  // other than the center, so a list stops at one more than that, and the
  // scan stops once every list is full.
  std::vector<size_t> out;
  out.reserve(k_prime);
  std::vector<std::vector<size_t>> cluster(k_prime);
  size_t open = k_prime;
  for (size_t i = 0; i < n && open > 0; ++i) {
    std::vector<size_t>& members = cluster[gmm.assignment[i]];
    if (members.size() > delegates_per_cluster) continue;
    members.push_back(i);
    if (members.size() > delegates_per_cluster) --open;
  }
  for (size_t j = 0; j < k_prime; ++j) {
    size_t center = gmm.selected[j];
    out.push_back(center);
    size_t taken = 0;
    for (size_t member : cluster[j]) {
      if (member == center) continue;
      if (taken == delegates_per_cluster) break;
      out.push_back(member);
      ++taken;
    }
  }
  return out;
}

}  // namespace diverse
