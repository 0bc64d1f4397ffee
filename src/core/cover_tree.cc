#include "core/cover_tree.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "core/screen.h"
#include "util/check.h"
#include "util/rng.h"

namespace diverse {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Leaf ranges hold up to this many rows: large enough that the screened
// leaf sweeps amortize their per-range setup (one fp32 chunk), small enough
// that node prunes retire meaningful work.
constexpr size_t kLeafRows = 256;

// Hard depth cap: the two-pole split provably makes progress whenever the
// node radius is positive, but adversarial layouts (near-duplicates under a
// coarse metric) could split 1-vs-rest for a long time; the cap bounds both
// build recursion and traversal recursion.
constexpr size_t kMaxDepth = 64;

// IndexProfitable's gate (described on its declaration): structural
// minimums, probe shape, and the largest probed doubling dimension that
// still indexes.
constexpr size_t kMinRows = 4096;
constexpr size_t kMinK = 64;
constexpr size_t kProbeSample = 1024;
constexpr size_t kProbeCenters = 32;
constexpr double kMaxProbeDim = 3.0;
// OneShotIndexProfitable's structural minimums.
constexpr size_t kOneShotMinRows = 65536;
constexpr size_t kOneShotMinCenters = 256;

// Merge two ascending rank lists (each rank enters the tree once per
// traversal, so the inputs are disjoint and the output stays strictly
// ascending).
void MergeRanks(const std::vector<uint32_t>& a, const std::vector<uint32_t>& b,
                std::vector<uint32_t>& out) {
  out.clear();
  out.reserve(a.size() + b.size());
  std::merge(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(out));
}

}  // namespace

bool UseIndexing(const Metric& metric, const Dataset& data) {
  return metric.policy().indexing != IndexPolicy::kOff &&
         metric.IndexSlack(data).abs < kInf;
}

bool IndexProfitable(const Dataset& data, const Metric& metric, size_t k) {
  const IndexPolicy policy = metric.policy().indexing;
  if (policy != IndexPolicy::kAuto) return policy == IndexPolicy::kForce;
  if (data.size() < kMinRows || k < kMinK) return false;
  // Probe: a deterministic fixed-seed sample runs a short farthest-first
  // loop; the decay of its selection distances estimates the doubling
  // dimension. For m centers on a d-dimensional corpus
  // sel[j] ~ diam * j^(-1/d), so d_hat = log(m - 1) / log(sel[1] /
  // sel[m - 1]). The probe costs O(sample * m) screened evaluations — a few
  // percent of ONE flat sweep at the gate minimums, against the k sweeps at
  // stake. The sample is drawn with a FIXED seed (same data + k -> same
  // verdict, always) rather than by striding: stride sampling resonates
  // with interleaved cluster layouts (stride == cluster count samples a
  // single cluster) and misestimates badly.
  size_t sample = std::min(kProbeSample, data.size() / 8);
  size_t m = std::min(kProbeCenters, k / 4);
  if (m < 4 || sample < 2 * m) return false;  // unprobeable
  Rng rng(0x1dcbULL * 0x9E3779B97F4A7C15ULL);
  std::vector<uint32_t> sample_ids(sample);
  for (uint32_t& id : sample_ids) {
    id = static_cast<uint32_t>(rng.NextBounded(data.size()));
  }
  Dataset probe;
  probe.AssignGatherColumnar(data, sample_ids);
  std::vector<double> dist(sample, kInf);
  std::vector<double> sel(m, 0.0);
  size_t cur = 0;
  for (size_t j = 1; j < m; ++j) {
    size_t far = ScreenedRelaxArgFarthest(metric, probe, cur, probe, dist);
    sel[j] = dist[far];
    cur = far;
  }
  double d1 = sel[1];
  double dm = sel[m - 1];
  if (!(d1 > 0.0)) return true;  // duplicate-dominated sample: trivial prunes
  double ratio = dm / d1;
  if (!(ratio > 0.0)) return true;  // at most m clusters in the sample
  if (ratio >= 1.0) return false;   // no decay: no usable geometry
  double d_hat =
      std::log(static_cast<double>(m - 1)) / std::log(1.0 / ratio);
  return d_hat <= kMaxProbeDim;
}

bool OneShotIndexProfitable(const Metric& metric, const Dataset& queries,
                            size_t nq, const Dataset& data) {
  if (!UseIndexing(metric, data)) return false;
  if (metric.policy().indexing != IndexPolicy::kForce &&
      (data.size() < kOneShotMinRows || nq < kOneShotMinCenters)) {
    return false;
  }
  // Slack coverage (soundness, not profitability — enforced even under
  // force): the tree's certified band reads the DATA's statistics, so every
  // query row's must be dominated by them; Metric::IndexSlack is monotone
  // in these statistics, exactly like the PersistentScreenContext bound.
  if (queries.dim() != data.dim()) return false;
  if (queries.has_dense_rows() && !data.has_dense_rows()) return false;
  if (queries.sparse_stats().max_nnz > data.sparse_stats().max_nnz) {
    return false;
  }
  if (queries.screen_stats().min_positive_norm <
      data.screen_stats().min_positive_norm) {
    return false;
  }
  return true;
}

CoverTree CoverTree::Build(const Dataset& data, const Metric& metric) {
  CoverTree t;
  const size_t n = data.size();
  t.perm_.resize(n);
  std::iota(t.perm_.begin(), t.perm_.end(), size_t{0});
  if (n == 0) {
    t.slack_ = metric.IndexSlack(data);
    return t;
  }
  struct Frame {
    size_t begin, end, parent;
    size_t center;  // ORIGINAL id of the node center (a row of the range)
    bool is_left;
  };
  std::vector<Frame> level, next_level;
  level.push_back({0, n, SIZE_MAX, t.perm_[0], false});
  std::vector<double> da;
  // Center distances, position-aligned with the current perm: dc_cur[pos] =
  // computed d(center of the owning frame, row at pos). Children INHERIT
  // their center distances from the parent's split arrays (left center is
  // pole A whose distances are `da`, right center is the parent center
  // whose distances are dc_cur), so only the root pays a center sweep —
  // every other node pays exactly one sweep, for its own pole A.
  std::vector<double> dc_cur(n), dc_next(n);
  std::vector<std::pair<double, uint32_t>> keys, kscratch;
  std::vector<size_t> scratch;
  // Certified fp32 build sweeps. The build needs two things from each
  // sweep: pole choices (ANY deterministic rule is correct) and a SOUND
  // node radius. When screening is enabled and the certified fp32 bound is
  // usable, sweep in fp32 and inflate the stored radius by the bound
  // (true <= (computed + abs) / (1 - rel)), roughly halving the build's
  // kernel cost. Tree SHAPE can differ from an exact-double build, but
  // every traversal result is shape-independent — prunes are sound for any
  // radius upper bound, and the fold/argmax replay the flat sweep's
  // original-id order — so results stay bit-identical either way.
  ScreenBound build_sb{};
  double build_sb_inv = 0.0;
  bool f32_sweeps = false;
  if (UseScreening(metric)) {
    const ScreenSideStats ds = SideStatsOf(data);
    build_sb = metric.ScreenErrorBound(ds, ds, data.dim());
    if (build_sb.rel < 1.0) {
      build_sb_inv = (1.0 + 1e-12) / (1.0 - build_sb.rel);
      f32_sweeps = true;
    }
  }
  std::vector<float> fbuf;
  // BFS over levels with a PING-PONG materialization of the current perm:
  // `cur` always holds the rows in the present perm order, so every node
  // range is a contiguous slab of it and the pole sweeps run with no
  // per-node gather at all. After each level with splits, the next buffer
  // is gathered once from the (cache-warm) current one via the local
  // new-position -> old-position map; when the loop ends the live buffer
  // IS the leaf-order dataset and is moved into leaf_data_ for free.
  // Scattered per-row access would cost ~5x the kernel itself at depth,
  // and re-gathering every node from the original dataset costs another
  // ~40% of the build — this keeps all copies sequential and local.
  Dataset buf_a, buf_b;
  const Dataset* cur = &data;  // level 0: perm is the identity
  Dataset* cur_mut = nullptr;  // set once a gather produced `cur`
  std::vector<uint32_t> next_local;
  auto sweep = [&](size_t q_orig, size_t begin, size_t m, double* out) {
    if (f32_sweeps) {
      fbuf.resize(m);
      metric.DistanceToManyF32(data.point(q_orig), *cur, begin,
                               std::span<float>(fbuf.data(), m));
      for (size_t i = 0; i < m; ++i) out[i] = fbuf[i];
    } else {
      metric.DistanceToMany(data.point(q_orig), *cur, begin,
                            std::span<double>(out, m));
    }
    t.build_evals_ += m;
  };
  // Only the root pays a center sweep; every other node inherits its center
  // distances from its parent's split.
  sweep(t.perm_[0], 0, n, dc_cur.data());
  size_t depth = 0;
  while (!level.empty()) {
    bool any_split = false;
    next_level.clear();
    for (const Frame& f : level) {
      const size_t id = t.nodes_.size();
      t.nodes_.emplace_back();
      if (f.parent != SIZE_MAX) {
        (f.is_left ? t.nodes_[f.parent].left : t.nodes_[f.parent].right) = id;
      }
      const size_t m = f.end - f.begin;
      // The frame's center is an ORIGINAL id (a row of the range); its
      // distances to the range sit in dc_cur, inherited from the parent's
      // split. Centers are stored as original ids for now: later splits
      // reorder perm_ inside descendant ranges, so leaf positions are only
      // final after the build; a post-pass rewrites every center through
      // inv_perm_.
      const size_t center_orig = f.center;
      double radius = 0.0;
      size_t a_idx = 0;   // first argmax: pole A
      size_t c_idx = 0;   // position of the center row within the range
      size_t min_orig = t.perm_[f.begin];
      for (size_t i = 0; i < m; ++i) {
        const double d = dc_cur[f.begin + i];
        if (d > radius) {
          radius = d;
          a_idx = i;
        }
        const size_t orig = t.perm_[f.begin + i];
        if (orig == center_orig) c_idx = i;
        min_orig = std::min(min_orig, orig);
      }
      Node& nd = t.nodes_[id];
      nd.begin = f.begin;
      nd.end = f.end;
      nd.center = center_orig;
      nd.min_orig = min_orig;
      // fp32 sweeps store the certified upper bound on the true max
      // distance; the split decision below keys off the raw computed max
      // (a zero fp32 max with a tiny inflated radius would only produce a
      // degenerate split, which the forced poles below resolve anyway).
      nd.radius =
          f32_sweeps ? (radius + build_sb.abs) * build_sb_inv : radius;
      if (m <= kLeafRows || radius == 0.0 || depth >= kMaxDepth) continue;
      // Balanced bisector split: pole A = farthest row from the center,
      // split key = (d(row, A) - d(row, center), original id) — rows sort
      // along the center->A axis (the classic two-pole rule compares the
      // same kind of difference), and the median pivot (nth_element on a
      // copy, stable linear partition by key <= pivot) keeps the tree
      // depth-balanced even on tie-heavy metrics like Jaccard, where the
      // id tiebreak resolves equal keys deterministically. A is FORCED
      // left and the center FORCED right (their keys are extremal up to
      // ties, so this moves at most a tie): the left child keeps A as its
      // center with `da` as its inherited distances, the right keeps the
      // parent center with dc_cur — membership holds by induction and no
      // child ever pays a center sweep.
      const size_t a_orig = t.perm_[f.begin + a_idx];
      da.resize(m);
      sweep(a_orig, f.begin, m, da.data());
      keys.resize(m);
      for (size_t i = 0; i < m; ++i) {
        keys[i] = {da[i] - dc_cur[f.begin + i],
                   static_cast<uint32_t>(t.perm_[f.begin + i])};
      }
      const size_t half = m / 2;
      kscratch = keys;
      std::nth_element(kscratch.begin(), kscratch.begin() + (half - 1),
                       kscratch.end());
      const std::pair<double, uint32_t> pivot = kscratch[half - 1];
      if (!any_split) {
        any_split = true;
        next_local.resize(n);
        std::iota(next_local.begin(), next_local.end(), uint32_t{0});
      }
      // One stable pass per side fills the new perm slice (original ids),
      // the gather map (positions within `cur`), and the child's inherited
      // center distances.
      scratch.clear();
      size_t pos = f.begin;
      for (size_t i = 0; i < m; ++i) {
        const bool left = (i == a_idx) ||
                          (i != c_idx && keys[i] <= pivot);
        if (left) {
          scratch.push_back(keys[i].second);
          dc_next[pos] = da[i];
          next_local[pos++] = static_cast<uint32_t>(f.begin + i);
        }
      }
      const size_t nl = pos - f.begin;
      for (size_t i = 0; i < m; ++i) {
        const bool left = (i == a_idx) ||
                          (i != c_idx && keys[i] <= pivot);
        if (!left) {
          scratch.push_back(keys[i].second);
          dc_next[pos] = dc_cur[f.begin + i];
          next_local[pos++] = static_cast<uint32_t>(f.begin + i);
        }
      }
      DIVERSE_CHECK_GE(nl, size_t{1});
      DIVERSE_CHECK_LT(nl, m);
      std::copy(scratch.begin(), scratch.end(), t.perm_.begin() + f.begin);
      next_level.push_back({f.begin, f.begin + nl, id, a_orig, true});
      next_level.push_back({f.begin + nl, f.end, id, center_orig, false});
    }
    if (any_split) {
      Dataset& dst = (cur == &buf_a) ? buf_b : buf_a;
      dst.AssignGatherColumnar(*cur, next_local);
      cur = &dst;
      cur_mut = &dst;
      // The children's inherited center distances were written at the NEW
      // positions; positions outside split frames go stale, but only child
      // frames (all freshly written) are ever read next level.
      dc_cur.swap(dc_next);
    }
    level.swap(next_level);
    ++depth;
  }
  t.inv_perm_.resize(n);
  for (size_t l = 0; l < n; ++l) t.inv_perm_[t.perm_[l]] = l;
  for (Node& nd : t.nodes_) nd.center = t.inv_perm_[nd.center];
  if (cur_mut != nullptr) {
    t.leaf_data_ = std::move(*cur_mut);
  } else {
    // Never split: the leaf order is the identity.
    next_local.resize(n);
    std::iota(next_local.begin(), next_local.end(), uint32_t{0});
    t.leaf_data_.AssignGatherColumnar(data, next_local);
  }
  t.slack_ = metric.IndexSlack(t.leaf_data_);
  return t;
}

namespace {

// One traversal over a shared tree: per-node stale upper bounds `ub` on
// max_{r in node} d(r, selected set), per-node stashed center ranks `pend`
// (sorted, replayed on the next visit), and `hpb` ("has pending below") so
// Flush can skip fully-materialized subtrees. Soundness invariants:
//
//   * ub[v] >= max_{r in v} dist*(r) at all times, where dist*(r) is the
//     TRUE fold min of r over every rank seen so far (materialized or not).
//     dist* only decreases, so stale bounds stay valid. Tightening by
//     Inflate(dc + radius) is valid for ANY tested rank (triangle
//     inequality through the node center, slack-inflated); leaf refreshes
//     are exact because at a visited leaf the applied fold equals dist*.
//   * A center prune (Deflate(dc) - radius > cur_ub) certifies
//     d(rank, r) > dist*(r) STRICTLY for every row of the node: the rank
//     can neither improve any row nor tie one (assignments keep their
//     first-rank-wins winner). Prune tests are order-independent, so
//     stashed ranks may be re-tested later under tighter bounds.
//   * An argmax prune (child_ub < best_val, or equal with min_orig >
//     best_orig) certifies no row of the child can beat — or tie with a
//     smaller original id — the current best, matching the flat argmax's
//     ascending-original-index strict-> fold.
//
// Traversals are strictly sequential (deterministic counters at any thread
// count); the tree itself is read-only and shareable.
struct LazyTraversal {
  const CoverTree& tree;
  const Metric& metric;
  const Dataset& centers;  // dataset the center rows live in
  const Dataset& leaf;     // tree.leaf_data()
  RelaxScreenPlan plan;
  std::span<double> dist;    // leaf-order running fold
  std::span<size_t> assign;  // leaf-order assignment (may be empty)
  std::vector<uint32_t> center_rows;  // rank -> row id in `centers`
  size_t rank_base = 0;
  CoverTreeQueryStats* stats = nullptr;
  std::vector<double> ub;
  std::vector<std::vector<uint32_t>> pend;
  std::vector<uint8_t> hpb;
  bool track_best = false;
  double best_val = -kInf;
  size_t best_orig = SIZE_MAX;

  LazyTraversal(const CoverTree& t, const Metric& m, const Dataset& c,
                std::span<double> d, std::span<size_t> a,
                CoverTreeQueryStats* s)
      : tree(t), metric(m), centers(c), leaf(t.leaf_data()), dist(d),
        assign(a), stats(s) {
    plan = PlanScreenedRelax(metric, centers, leaf);
    ub.assign(tree.nodes().size(), kInf);
    pend.resize(tree.nodes().size());
    hpb.assign(tree.nodes().size(), 0);
  }

  // Exact max of the materialized fold over a leaf range (equals the true
  // max dist* there — every row's minimizing rank is always applied).
  double LeafMax(const CoverTree::Node& nd) const {
    double mx = 0.0;
    for (size_t r = nd.begin; r < nd.end; ++r) mx = std::max(mx, dist[r]);
    return mx;
  }

  // Tests `down` + stashed ranks against the node bound; survivors land in
  // `keeps` and tighten cur_ub. Shared by Search and Flush.
  double TestRanks(size_t v, const std::vector<uint32_t>& down,
                   double inherited, std::vector<uint32_t>& keeps) {
    const CoverTree::Node& nd = tree.nodes()[v];
    std::vector<uint32_t> merged;
    MergeRanks(pend[v], down, merged);
    pend[v].clear();
    double cur_ub = std::min(ub[v], inherited);
    keeps.clear();
    keeps.reserve(merged.size());
    const size_t span_rows = nd.end - nd.begin;
    const uint32_t center = static_cast<uint32_t>(nd.center);
    for (uint32_t rank : merged) {
      double dc;
      metric.DistanceRowsMany(centers, center_rows[rank], leaf, {&center, 1},
                              &dc);
      ++stats->bound_evals;
      if (tree.Deflate(dc) - nd.radius > cur_ub) {
        stats->pruned_pairs += span_rows;
      } else {
        keeps.push_back(rank);
        cur_ub = std::min(cur_ub, tree.Inflate(dc + nd.radius));
      }
    }
    return cur_ub;
  }

  // Applies the surviving ranks to a leaf range through the flat screened
  // kernel (ascending rank order — the flat sweep's center order, so the
  // per-pair fold and every rescue decision is the flat sweep's restricted
  // to these rows).
  void ApplyLeaf(const CoverTree::Node& nd,
                 const std::vector<uint32_t>& keeps) {
    ++stats->leaf_opens;
    const size_t span_rows = nd.end - nd.begin;
    for (uint32_t rank : keeps) {
      stats->applied_pairs += span_rows;
      stats->exact_evals += ScreenedRelaxRange(
          metric, centers, center_rows[rank], leaf, nd.begin, span_rows, plan,
          dist, assign, rank_base + rank);
    }
  }

  // One GMM step: push the newest rank down, replay stashes, track the
  // global argmax, and argmax-prune subtrees that provably cannot win.
  void Search(size_t v, const std::vector<uint32_t>& down, double inherited) {
    ++stats->node_visits;
    const CoverTree::Node& nd = tree.nodes()[v];
    std::vector<uint32_t> keeps;
    double cur_ub = TestRanks(v, down, inherited, keeps);
    if (nd.left == 0) {
      ApplyLeaf(nd, keeps);
      const auto& perm = tree.perm();
      for (size_t r = nd.begin; r < nd.end; ++r) {
        double val = dist[r];
        if (val > best_val || (val == best_val && perm[r] < best_orig)) {
          best_val = val;
          best_orig = perm[r];
        }
      }
      ub[v] = LeafMax(nd);
      return;
    }
    const size_t l = nd.left;
    const size_t r = nd.right;
    // Visit the higher-bound child first (ties left): its leaves raise
    // best_val fastest, so the sibling — and most of the frontier — argmax-
    // prunes.
    const size_t first =
        (std::min(ub[r], cur_ub) > std::min(ub[l], cur_ub)) ? r : l;
    const size_t second = (first == l) ? r : l;
    for (size_t w : {first, second}) {
      const double child_ub = std::min(ub[w], cur_ub);
      const CoverTree::Node& cw = tree.nodes()[w];
      if (child_ub < best_val ||
          (child_ub == best_val && cw.min_orig > best_orig)) {
        // No row below can win the argmax; stash the surviving ranks for
        // the subtree's next visit instead of descending.
        if (!keeps.empty()) {
          std::vector<uint32_t> merged;
          MergeRanks(pend[w], keeps, merged);
          pend[w] = std::move(merged);
        }
      } else {
        Search(w, keeps, cur_ub);
      }
    }
    ub[v] = std::min(cur_ub, std::max(ub[l], ub[r]));
    hpb[v] = static_cast<uint8_t>(!pend[l].empty() || !pend[r].empty() ||
                                  hpb[l] != 0 || hpb[r] != 0);
  }

  // Materializes every row: drains stashes (and carries `down` ranks) with
  // the same center-prune test, no argmax. After Flush(root) the leaf-order
  // fold equals the full flat fold at every row.
  void Flush(size_t v, const std::vector<uint32_t>& down, double inherited) {
    ++stats->node_visits;
    const CoverTree::Node& nd = tree.nodes()[v];
    std::vector<uint32_t> keeps;
    double cur_ub = TestRanks(v, down, inherited, keeps);
    if (nd.left == 0) {
      if (!keeps.empty()) {
        ApplyLeaf(nd, keeps);
        ub[v] = LeafMax(nd);
      } else {
        ub[v] = cur_ub;
      }
      return;
    }
    const size_t l = nd.left;
    const size_t r = nd.right;
    for (size_t w : {l, r}) {
      if (!keeps.empty() || !pend[w].empty() || hpb[w] != 0) {
        Flush(w, keeps, cur_ub);
      }
    }
    ub[v] = std::min(cur_ub, std::max(ub[l], ub[r]));
    hpb[v] = 0;
  }
};

}  // namespace

GmmResult LazyGreedyGmm(const Dataset& data, const CoverTree& tree,
                        const Metric& metric, size_t k, size_t first,
                        CoverTreeQueryStats* stats) {
  const size_t n = data.size();
  DIVERSE_CHECK_EQ(n, tree.size());
  DIVERSE_CHECK_GE(k, size_t{1});
  DIVERSE_CHECK_LE(k, n);
  DIVERSE_CHECK_LT(first, n);
  CoverTreeQueryStats local;
  if (stats == nullptr) stats = &local;
  // The QUERY side of the traversal is the original dataset: center rows
  // are addressed by original id, so the screened kernels read value-typed
  // query points from `data` (leaf_data is columnar-only scratch). The two
  // datasets hold the same multiset of rows, so every aggregate screening
  // statistic — and therefore the plan and bound — is identical either way.
  std::vector<double> dist_leaf(n, kInf);
  std::vector<size_t> assign_leaf(n, 0);
  LazyTraversal trav(tree, metric, data, dist_leaf, assign_leaf, stats);
  GmmResult result;
  result.selected.reserve(k);
  result.selection_distance.reserve(k);
  result.selected.push_back(first);
  result.selection_distance.push_back(kInf);
  trav.center_rows.push_back(static_cast<uint32_t>(first));
  std::vector<uint32_t> down(1);
  for (size_t step = 1; step <= k; ++step) {
    trav.best_val = -kInf;
    trav.best_orig = SIZE_MAX;
    down[0] = static_cast<uint32_t>(step - 1);
    trav.Search(0, down, kInf);
    if (step == k) {
      result.range = trav.best_val;
      break;
    }
    result.selected.push_back(trav.best_orig);
    result.selection_distance.push_back(trav.best_val);
    trav.center_rows.push_back(static_cast<uint32_t>(trav.best_orig));
  }
  const std::vector<uint32_t> none;
  trav.Flush(0, none, kInf);
  result.assignment.resize(n);
  result.distance_to_selected.resize(n);
  const auto& perm = tree.perm();
  for (size_t l = 0; l < n; ++l) {
    result.distance_to_selected[perm[l]] = dist_leaf[l];
    result.assignment[perm[l]] = assign_leaf[l];
  }
  return result;
}

size_t IndexedRelaxTilesAndArgFarthest(const Metric& metric,
                                       const Dataset& queries, size_t q_begin,
                                       size_t nq, size_t rank_base,
                                       const CoverTree& tree,
                                       std::span<double> dist,
                                       std::span<size_t> assignment,
                                       CoverTreeQueryStats* stats) {
  const size_t n = tree.size();
  DIVERSE_CHECK_EQ(dist.size(), n);
  if (!assignment.empty()) DIVERSE_CHECK_EQ(assignment.size(), n);
  DIVERSE_CHECK_LE(q_begin + nq, queries.size());
  if (n == 0) return 0;
  CoverTreeQueryStats local;
  if (stats == nullptr) stats = &local;
  const auto& perm = tree.perm();
  std::vector<double> dist_leaf(n);
  for (size_t l = 0; l < n; ++l) dist_leaf[l] = dist[perm[l]];
  std::vector<size_t> assign_leaf;
  if (!assignment.empty()) {
    assign_leaf.resize(n);
    for (size_t l = 0; l < n; ++l) assign_leaf[l] = assignment[perm[l]];
  }
  LazyTraversal trav(tree, metric, queries, dist_leaf, assign_leaf, stats);
  trav.rank_base = rank_base;
  trav.center_rows.resize(nq);
  for (size_t q = 0; q < nq; ++q) {
    trav.center_rows[q] = static_cast<uint32_t>(q_begin + q);
  }
  // Bounds start from the INCOMING fold (reverse id order visits children
  // before parents), so later centers prune against both earlier centers
  // and whatever the caller's dist already achieved.
  const auto& nodes = tree.nodes();
  for (size_t i = nodes.size(); i-- > 0;) {
    const CoverTree::Node& nd = nodes[i];
    if (nd.left == 0) {
      trav.ub[i] = trav.LeafMax(nd);
    } else {
      trav.ub[i] = std::max(trav.ub[nd.left], trav.ub[nd.right]);
    }
  }
  std::vector<uint32_t> all(nq);
  std::iota(all.begin(), all.end(), uint32_t{0});
  trav.Flush(0, all, kInf);
  for (size_t l = 0; l < n; ++l) dist[perm[l]] = dist_leaf[l];
  if (!assignment.empty()) {
    for (size_t l = 0; l < n; ++l) assignment[perm[l]] = assign_leaf[l];
  }
  size_t best = 0;
  double best_val = dist[0];
  for (size_t i = 1; i < n; ++i) {
    if (dist[i] > best_val) {
      best_val = dist[i];
      best = i;
    }
  }
  return best;
}

}  // namespace diverse
