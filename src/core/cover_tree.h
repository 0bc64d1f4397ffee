// Metric index: a cover-style ball tree over a Dataset, and the lazy-greedy
// traversals that use it as a THIRD screening tier above the certified fp32
// screen (core/screen.h).
//
// The flat screened sweeps still touch every row per relax step: the fp32
// pass is cheap, but it is O(n) work k times over. For datasets with low
// doubling dimension (clustered corpora — the regime the paper's coreset
// constructions target), triangle-inequality bounds on whole subtrees can
// retire most of those rows without even the fp32 pass:
//
//   * Build() reorders the rows once (a leaf permutation) so every tree node
//     owns a CONTIGUOUS leaf-row range; surviving ranges are swept by the
//     existing screened kernels (ScreenedRelaxRange) on contiguous slabs.
//   * Each node stores a center row and a covering radius. For a center c
//     with computed distance dc to the node center, every row r in the node
//     satisfies  d(c, r) >= dc - radius  and  d(c, r) <= dc + radius  — up
//     to the rounding of the computed values, which Metric::IndexSlack
//     certifies and the 4x Inflate/Deflate band absorbs (derivation in the
//     README). A subtree whose deflated lower bound exceeds an upper bound
//     on what the rows' current distance-to-selected already achieves can
//     be pruned: no row in it can be improved by c, and (strictly) no tie
//     is possible, so assignments are untouched too.
//   * LazyGreedyGmm keeps STALE per-node upper bounds on the distance to
//     the chosen set and revalidates them against only the newest center —
//     Gonzalez's k sequential sweeps become k traversals of a shrinking
//     frontier. Pending (stashed) center ranks are replayed lazily when a
//     subtree is next visited, and a final Flush materializes every row.
//
// Everything here is BIT-IDENTICAL to the flat screened path (which is
// itself bit-identical to the exact double path): node bounds are inflated
// by the certified slack before any prune, every surviving pair goes through
// the same per-pair screen-then-rescue decisions as the flat sweep
// (restricted to fewer rows, so indexed exact-evaluation counts never exceed
// the flat screened baseline), and every argmax / assignment tie breaks on
// ORIGINAL row indices exactly like the flat scans. The index only moves
// cost. Traversals are single-threaded and deterministic; concurrent
// traversals over one shared (immutable) tree are safe.
//
// Indexing is gated: metrics must opt in (a finite Metric::IndexSlack — the
// triangle inequality is load-bearing; dot-product-style similarities stay
// flat), a global toggle mirrors the screening toggle, and a deterministic
// profitability probe estimates the doubling dimension of a sample before
// committing to a build (uniform high-dimensional data gates off).

#ifndef DIVERSE_CORE_COVER_TREE_H_
#define DIVERSE_CORE_COVER_TREE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/dataset.h"
#include "core/gmm.h"
#include "core/metric.h"

namespace diverse {

/// Process-global indexing toggle: on unless a ScopedIndexing(false) guard
/// is alive. Results are bit-identical either way (the mirror of
/// ScreeningEnabled for the metric-index tier); the toggle exists for A/B
/// benchmarking and as an escape hatch (SolveOptions::indexing,
/// --indexing=0).
bool IndexingEnabled();

/// RAII indexing override (used by TrySolve and tests), counted like
/// ScopedScreening: a `false` guard disables indexing until the last such
/// guard is destroyed, in any order; a `true` guard changes nothing.
class ScopedIndexing {
 public:
  explicit ScopedIndexing(bool enabled);
  ScopedIndexing(const ScopedIndexing&) = delete;
  ScopedIndexing& operator=(const ScopedIndexing&) = delete;
  ~ScopedIndexing();

 private:
  bool disables_;
};

/// True when indexed traversals may run for `metric` over `data` (toggle on
/// and the metric opted into triangle-inequality pruning: its IndexSlack
/// over `data` is finite).
bool UseIndexing(const Metric& metric, const Dataset& data);

/// Deterministic profitability gate for the index. All fields are read-only
/// dataset/problem statistics in, one bool out — no scheduling dependence.
struct IndexGate {
  /// Structural minimums: below either, a build cannot amortize.
  size_t min_rows = 4096;
  size_t min_k = 64;
  /// Probe shape: a stride sample of min(probe_sample, n / 8) rows runs a
  /// farthest-first loop for min(probe_centers, k / 4) centers; the decay
  /// of the selection distances estimates the doubling dimension
  /// (d_hat = log(m - 1) / log(sel[1] / sel[m - 1])).
  size_t probe_sample = 1024;
  size_t probe_centers = 32;
  /// Index on iff the probe's d_hat is at most this.
  double max_probe_dim = 3.0;
  /// One-shot (multi-center relax) structural minimums: building a tree for
  /// a single pass only pays when both sides are large.
  size_t oneshot_min_rows = 65536;
  size_t oneshot_min_centers = 256;
  /// Test override: +1 forces indexing on (skips minimums and probe), -1
  /// forces it off, 0 uses the probe.
  int force = 0;
};

/// The process-global gate (tests swap it with SetIndexGateForTesting).
const IndexGate& GetIndexGate();
void SetIndexGateForTesting(const IndexGate& gate);

/// Deterministic verdict: should GMM(data, k) build and use the index?
/// Runs the stride-sample probe described on IndexGate (a few thousand
/// screened evaluations — O(sqrt) of one flat sweep at the minimums).
bool IndexProfitable(const Dataset& data, const Metric& metric, size_t k);

/// Deterministic verdict for the one-shot multi-center relax (k-center's
/// final assignment passes): `queries` are the centers. Folds the size
/// minimums AND the slack-coverage check — the tree's certified slack is
/// computed from `data`'s statistics, so query rows must be dominated by
/// them (dense queries need dense rows present, sparse support and norm
/// extremes must not exceed the data's own).
bool OneShotIndexProfitable(const Metric& metric, const Dataset& queries,
                            size_t nq, const Dataset& data);

/// Work counters of an indexed traversal. All values are deterministic
/// functions of the inputs (single-threaded traversal, deterministic
/// bounds); pruned_pairs / (pruned_pairs + applied_pairs) is the benchmark
/// pruned_pct.
struct CoverTreeQueryStats {
  uint64_t pruned_pairs = 0;   ///< rows retired by node-level prunes
  uint64_t applied_pairs = 0;  ///< rows swept by the screened leaf kernel
  uint64_t bound_evals = 0;    ///< exact center-to-node-center evaluations
  uint64_t node_visits = 0;    ///< Search/Flush node entries
  uint64_t leaf_opens = 0;     ///< leaf ranges entered
  uint64_t exact_evals = 0;    ///< exact rescues paid inside leaf sweeps
};

/// The ball tree. Immutable after Build; shareable across threads.
class CoverTree {
 public:
  /// One node over the contiguous leaf-row range [begin, end). Children of
  /// node i always have ids > i (the root is id 0), so left == 0 marks a
  /// leaf.
  struct Node {
    size_t begin = 0;
    size_t end = 0;
    size_t left = 0;   ///< child id, 0 = leaf
    size_t right = 0;  ///< child id, 0 = leaf
    size_t center = 0; ///< leaf-order row id of the node's center row
    size_t min_orig = 0;  ///< smallest ORIGINAL row id in the range
    double radius = 0.0;  ///< max computed d(center, row) over the range
  };

  /// Builds the tree: BFS median-bisector splits. Each node's center
  /// distances are INHERITED from its parent's split (left center = the
  /// node's pole A, right center = the parent center), so only the root
  /// pays a center sweep; a node then pays one sweep for its pole A
  /// (farthest row from the center) and partitions rows stably by the
  /// bisector key d(row, A) - d(row, center) against its median — a
  /// deterministic, depth-balanced permutation even on tie-heavy metrics.
  /// Leaves close at <= 256 rows, radius 0 (duplicates), or depth 64.
  /// Costs ~1 evaluation per row per level (build_evals()), through the
  /// batched row kernels, in certified fp32 when the screen bound allows
  /// (results stay bit-identical; see the .cc). Empty data yields an
  /// empty tree.
  static CoverTree Build(const Dataset& data, const Metric& metric);

  size_t size() const { return perm_.size(); }
  bool empty() const { return perm_.empty(); }
  const std::vector<Node>& nodes() const { return nodes_; }

  /// The rows of the source dataset re-materialized in leaf order — the
  /// dataset the leaf sweeps run on (identical row content and aggregate
  /// statistics, so screening bounds and per-pair decisions match the flat
  /// sweep bit for bit). Columnar-only (Dataset::AssignGatherColumnar):
  /// kernels, norms, and stats are available, but the value-typed point()
  /// accessors are not — traversals always address it as the DATA side of
  /// the row kernels, which every metric that opts into indexing overrides.
  const Dataset& leaf_data() const { return leaf_data_; }

  /// perm()[leaf_row] = original row id; inv_perm() is the inverse.
  const std::vector<size_t>& perm() const { return perm_; }
  const std::vector<size_t>& inv_perm() const { return inv_perm_; }

  /// Distance evaluations paid by Build — fp32 sweeps when the certified
  /// screen bound is usable, exact doubles otherwise (reported separately
  /// from query-side counters; benchmarks amortize it over the k
  /// traversals).
  uint64_t build_evals() const { return build_evals_; }

  /// The certified kernel slack (Metric::IndexSlack of the data) and the 4x
  /// band transforms every prune chains through: Inflate(x) >= any true
  /// value whose computed value is <= x; Deflate(x) <= any true value whose
  /// computed value is >= x — with enough margin to chain three computed
  /// distances through one triangle-inequality step (README derivation).
  const ScreenBound& slack() const { return slack_; }
  double Inflate(double x) const {
    return x + 4.0 * (slack_.rel * x + slack_.abs);
  }
  double Deflate(double x) const {
    return x - 4.0 * (slack_.rel * x + slack_.abs);
  }

 private:
  std::vector<Node> nodes_;
  std::vector<size_t> perm_;
  std::vector<size_t> inv_perm_;
  Dataset leaf_data_;
  ScreenBound slack_;
  uint64_t build_evals_ = 0;
};

/// Gonzalez's farthest-first traversal over the index: bit-identical
/// GmmResult to Gmm(data, metric, k, first) — same selected rows, selection
/// distances, assignment, distance_to_selected, and range, byte for byte —
/// with per-step work proportional to the contended frontier instead of n.
/// Requires tree built over `data`, 1 <= k <= n, first < n. `stats`
/// (optional) accumulates the traversal counters.
GmmResult LazyGreedyGmm(const Dataset& data, const CoverTree& tree,
                        const Metric& metric, size_t k, size_t first = 0,
                        CoverTreeQueryStats* stats = nullptr);

/// Indexed drop-in for ScreenedRelaxTilesAndArgFarthest: relaxes
/// dist/assignment (ORIGINAL row order, spanning tree.size() rows) against
/// centers [q_begin, q_begin + nq) of `queries` and returns the argmax row,
/// all bit-identical to the flat sweep. One flush-style traversal carries
/// all nq centers; node bounds start from the incoming dist values. Callers
/// gate with OneShotIndexProfitable first (the slack-coverage check lives
/// there).
size_t IndexedRelaxTilesAndArgFarthest(const Metric& metric,
                                       const Dataset& queries, size_t q_begin,
                                       size_t nq, size_t rank_base,
                                       const CoverTree& tree,
                                       std::span<double> dist,
                                       std::span<size_t> assignment = {},
                                       CoverTreeQueryStats* stats = nullptr);

}  // namespace diverse

#endif  // DIVERSE_CORE_COVER_TREE_H_
