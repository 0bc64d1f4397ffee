// The GMM-based composable core-set constructions used by the MapReduce
// algorithms (Theorems 4 and 5 of the paper). A core-set is a subset of its
// input, so both return row ids into their input Dataset; callers gather
// the rows they need (Dataset::point).
//
//   * GmmCoreset(S, k')          — kernel only; (1+eps)-composable core-set
//                                  for remote-edge and remote-cycle (Thm 4).
//   * GmmExtCoreset(S, k, k')    — Algorithm 1 (GMM-EXT): kernel of k' points
//                                  plus up to k-1 delegates per cluster;
//                                  (1+eps)-composable core-set for
//                                  remote-clique/-star/-bipartition/-tree
//                                  (Thm 5).
// The generalized (multiplicity) variant GMM-GEN lives in
// generalized_coreset.h.

#ifndef DIVERSE_CORE_CORESET_H_
#define DIVERSE_CORE_CORESET_H_

#include <cstddef>
#include <vector>

#include "core/dataset.h"
#include "core/gmm.h"
#include "core/metric.h"

namespace diverse {

/// GMM core-set: the ids of the k' rows selected by a farthest-first
/// traversal of `data`, in selection order (Gmm(...).selected). Requires
/// 1 <= k_prime <= data.size().
std::vector<size_t> GmmCoreset(const Dataset& data, const Metric& metric,
                               size_t k_prime);

/// GMM-EXT core-set (Algorithm 1): runs GMM(S, k') to obtain a kernel
/// T' = {c_1..c_k'}, clusters S around the kernel (ties toward earlier
/// centers), and returns the ids of each center followed by up to
/// `delegates_per_cluster` additional rows of its cluster. With
/// delegates_per_cluster = k-1 this is exactly the paper's GMM-EXT(S, k, k');
/// Theorem 7's randomized MR algorithm calls it with a smaller cap. Output
/// size is at most k' * (1 + delegates_per_cluster). On duplicate-heavy
/// inputs GMM may select one row twice; the repeat stays in the output.
std::vector<size_t> GmmExtCoreset(const Dataset& data, const Metric& metric,
                                  size_t k_prime,
                                  size_t delegates_per_cluster);

}  // namespace diverse

#endif  // DIVERSE_CORE_CORESET_H_
