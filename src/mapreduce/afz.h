// AFZ: the state-of-the-art baseline of Table 4.
//
// Aghamolaei, Farhadi and Zarrabi-Zadeh (CCCG 2015) give composable
// core-sets for diversity maximization in general metric spaces with
// constant approximation factors (Table 2 of the paper: 3 for remote-edge,
// 6+eps for remote-clique). Their constructions differ per measure:
//   * remote-edge: GMM with core-set size k — identical to CPPU at k' = k,
//     which is why the paper calls that comparison "less interesting";
//   * remote-clique: per-partition *local search* — start from k arbitrary
//     points and swap in any outside point that increases the core-set's sum
//     of pairwise distances, to convergence. Each sweep costs O(|S_i| k^2)
//     distance evaluations and the number of sweeps is unbounded, which is
//     the superlinear behaviour Table 4 measures.
// As in the paper, no public AFZ code exists, so we reimplement it inside
// the same MapReduce simulator and with the same final sequential step as
// CPPU; only the round-1 core-set construction differs.

#ifndef DIVERSE_MAPREDUCE_AFZ_H_
#define DIVERSE_MAPREDUCE_AFZ_H_

#include "core/diversity.h"
#include "core/metric.h"
#include "core/point.h"
#include "mapreduce/mr_diversity.h"

namespace diverse {

/// Options for an AFZ run; reuses the CPPU MrOptions. AFZ's core-set size is
/// fixed at k by its construction, so options.k_prime is ignored.
struct AfzOptions {
  size_t k = 8;
  size_t num_partitions = 4;
  /// Simulated processors, at most kMaxMapReduceWorkers.
  size_t num_workers = 4;
  PartitionStrategy partition = PartitionStrategy::kRandom;
  uint64_t seed = 1;
  /// Safety valve on accepted local-search swaps (the restart-scan search
  /// normally stops at a local optimum well before this); the baseline's
  /// cost is the experiment, but runaway instances must still terminate.
  size_t max_sweeps = 1000000;
};

/// Runs the 2-round AFZ MapReduce algorithm. Supports kRemoteEdge and
/// kRemoteClique (the two measures compared in the paper's Table 4 study).
/// Returns kInvalidArgument, before any thread starts, when
/// options.num_workers is 0 or above kMaxMapReduceWorkers.
StatusOr<MrResult> TryRunAfz(const PointSet& input, const Metric& metric,
                             DiversityProblem problem,
                             const AfzOptions& options);

}  // namespace diverse

#endif  // DIVERSE_MAPREDUCE_AFZ_H_
