// Sequential approximation algorithms for the six diversity problems — the
// "alpha" algorithms of Table 1 that run on (core-sets of) the data.
//
// Following the paper (Section 6: "the best sequential approximation
// algorithms ... are essentially based on either finding a maximal matching
// or running GMM on the input set"):
//   * remote-edge, remote-tree, remote-cycle: the k-prefix of GMM
//     (2-, 4-, 3-approximate respectively);
//   * remote-clique, remote-star, remote-bipartition: greedy heaviest-pair
//     matching [Hassin-Rubinstein-Tamir 97; Chandra-Halldorsson 01]
//     (2-, 2-, 3-approximate).
// Both families have multiplicity-aware adaptations (Fact 2) used with
// generalized core-sets.

#ifndef DIVERSE_CORE_SEQUENTIAL_H_
#define DIVERSE_CORE_SEQUENTIAL_H_

#include <cstddef>
#include <span>
#include <vector>

#include "core/dataset.h"
#include "core/distance_matrix.h"
#include "core/diversity.h"
#include "core/generalized_coreset.h"
#include "core/metric.h"
#include "core/point.h"

namespace diverse {

/// Farthest-first traversal driven by a distance matrix instead of points.
/// Returns the k selected row indices in selection order.
std::vector<size_t> GmmOnMatrix(const DistanceMatrix& d, size_t k,
                                size_t first = 0);

/// Greedy heaviest-pair matching on a distance matrix: repeatedly picks the
/// farthest pair among unused rows until k points are chosen; for odd k the
/// last point maximizes its distance sum to the chosen set. One streaming
/// O(n^2) row scan fills a top-pair buffer that the greedy loop consumes
/// (plus rare refill scans over live rows), so the former k/2 full rescans
/// are gone: ~O(n^2 + k^2 log k) total.
std::vector<size_t> GreedyMatchingOnMatrix(const DistanceMatrix& d, size_t k);

/// Greedy heaviest-pair matching evaluated on the fly (no matrix storage),
/// for point sets too large to materialize n^2 distances; same selection as
/// GreedyMatchingOnMatrix. Each pair scan keeps the top `cap` = 4k^2 live
/// pairs under a total order (distance descending, then (i, j)), so the
/// kept set, and hence the selection, does not depend on which pairs the
/// scan offers, in what order, or how it is split.
///
/// What the bound prunes: when the metric supports indexing (UseIndexing:
/// its policy allows it and Metric::IndexSlack is finite), the scan first
/// clusters the m live rows with GMM (ceil(sqrt(m)) centers) and gathers
/// them cluster-major. A pair of clusters (a, b) gets the bound
/// d(c_a, c_b) + R_a + R_b (2 R_a when a == b), where R is the cluster's
/// largest distance to its center, and the scan visits cluster pairs by
/// bound, largest first. It stops at the first pair whose bound is strictly
/// below the running cutoff (the lightest kept distance), skipping every
/// later pair. On clustered inputs (the remote-clique core-set aggregate)
/// this skips almost all pairs; on uniform data it skips few, and the
/// clustering (ceil(sqrt(m)) * m evaluations) is overhead.
///
/// Slack: the bound chains computed distances through the triangle
/// inequality. IndexSlack certifies |x - t| <= rel * x + abs for each
/// computed x of true value t, so a pair's computed distance is at most
/// (S * (1 + rel) + 4 * abs) / (1 - rel) for the sum S of the three (or
/// two) computed terms, which is the bound used, rounded up.
///
/// Why selections cannot move: a skipped pair's computed distance is
/// strictly below the cutoff, i.e. strictly lighter than `cap` pairs already
/// kept, so it could never enter the kept set. Without indexing the rows
/// form one cluster with an infinite bound: the exhaustive scan.
///
/// The scan's 64-row query blocks are dealt round-robin to up to 16 chunks
/// on GlobalThreadPool(), each with its own top-pair heap, cutoff and stop
/// rule, and the chunk heaps are merged exactly. The chunk count depends
/// only on the row count and k, so the selection and the exact/screened
/// evaluation counts are identical at any thread count; it is also capped
/// so all chunk heaps together keep at most 2^20 pairs (24 MB) unless one
/// heap alone needs more. Refill scans first gather the live rows into a
/// columnar scratch Dataset so used rows' distances are never recomputed
/// (the exhaustive refill pays exactly live*(live-1)/2 evaluations).
std::vector<size_t> GreedyMatchingOnDataset(const Dataset& data,
                                            const Metric& metric, size_t k);

/// Shim: copies `points` into a Dataset and matches on it.
std::vector<size_t> GreedyMatchingOnPoints(std::span<const Point> points,
                                           const Metric& metric, size_t k);

/// Solves the problem on the rows of `d`, returning k row indices.
/// Dispatches to GmmOnMatrix or GreedyMatchingOnMatrix by problem family.
std::vector<size_t> SolveSequentialOnMatrix(DiversityProblem problem,
                                            const DistanceMatrix& d, size_t k);

/// Solves the problem on the rows of `data`, returning k row indices.
/// GMM-family problems cost O(k n) distances; matching-family at most
/// ~n^2/2 (one buffered pair scan, cluster-bounded when the metric supports
/// indexing, plus rare refills, chunked across the thread pool; see
/// GreedyMatchingOnDataset). Both run on the columnar batch kernels,
/// and the result is the same at any thread count. Requires
/// k <= data.size().
std::vector<size_t> SolveSequential(DiversityProblem problem,
                                    const Dataset& data, const Metric& metric,
                                    size_t k);

/// Shim: copies `points` into a Dataset and solves on it.
std::vector<size_t> SolveSequential(DiversityProblem problem,
                                    std::span<const Point> points,
                                    const Metric& metric, size_t k);

/// Scan policy for LocalSearchRemoteClique.
enum class LocalSearchScan : uint8_t {
  /// Continue the candidate sweep after an improving swap (our optimized
  /// variant: converges in few sweeps).
  kContinue,
  /// Restart the candidate scan from the beginning after every improving
  /// swap — the literal reading of the published local-search pseudocode,
  /// and the source of the AFZ baseline's superlinear running time
  /// (cost ~ #improvements * n * k).
  kRestart,
};

/// Local-search improvement for remote-clique: starting from `initial`
/// (k indices into `points`), repeatedly swaps a chosen point for an outside
/// point while the sum of pairwise distances improves. With kContinue,
/// `max_sweeps` bounds the number of full candidate sweeps; with kRestart it
/// bounds the number of accepted swaps (a termination safety valve — the
/// search normally stops at a local optimum). This is the (intentionally
/// expensive) core-set construction of the AFZ baseline
/// [Aghamolaei et al., CCCG 15]; exposed here so tests can exercise it.
std::vector<size_t> LocalSearchRemoteClique(
    std::span<const Point> points, const Metric& metric,
    std::vector<size_t> initial, size_t max_sweeps,
    LocalSearchScan scan = LocalSearchScan::kContinue);

/// Fact 2: the multiplicity-aware adaptation. Runs the sequential algorithm
/// for `problem` on the capped expansion of `coreset` (replicas at distance
/// zero) and returns the selected multiset as a coherent subset T-hat with
/// expanded size exactly k. Requires coreset.ExpandedSize() >= k.
GeneralizedCoreset SolveSequentialGeneralized(DiversityProblem problem,
                                              const GeneralizedCoreset& coreset,
                                              const Metric& metric, size_t k);

}  // namespace diverse

#endif  // DIVERSE_CORE_SEQUENTIAL_H_
