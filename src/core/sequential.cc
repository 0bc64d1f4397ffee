#include "core/sequential.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>

#include "core/gmm.h"
#include "core/screen.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace diverse {

std::vector<size_t> GmmOnMatrix(const DistanceMatrix& d, size_t k,
                                size_t first) {
  size_t n = d.size();
  DIVERSE_CHECK_GE(k, 1u);
  DIVERSE_CHECK_LE(k, n);
  DIVERSE_CHECK_LT(first, n);

  std::vector<size_t> selected;
  selected.reserve(k);
  std::vector<double> dist(n, std::numeric_limits<double>::infinity());
  size_t current = first;
  selected.push_back(current);
  while (selected.size() < k) {
    size_t farthest = current;
    double farthest_dist = -1.0;
    // Stream the current center's row (d is symmetric) instead of probing
    // the strided column.
    std::span<const double> row = d.row(current);
    for (size_t i = 0; i < n; ++i) {
      dist[i] = std::min(dist[i], row[i]);
      if (dist[i] > farthest_dist) {
        farthest_dist = dist[i];
        farthest = i;
      }
    }
    selected.push_back(farthest);
    current = farthest;
  }
  return selected;
}

namespace {

// A candidate pair for the heaviest-pair greedy matching. `Heavier` is the
// total order the matching consumes pairs in: by distance descending, ties
// by (i, j) ascending — the same pair the row-major first-strict-max scan
// of the pre-buffered implementation selected. Because the order is total,
// the top-`cap` set of any collection of pairs is unique: the kept buffer
// and the selection are independent of the order in which a scan offers
// pairs, of tile shapes, and of how the scan is split into chunks.
struct HeavyPair {
  double dist;
  size_t i, j;
};

bool Heavier(const HeavyPair& a, const HeavyPair& b) {
  if (a.dist != b.dist) return a.dist > b.dist;
  if (a.i != b.i) return a.i < b.i;
  return a.j < b.j;
}

// The `cap` heaviest pairs offered so far: a bounded min-heap whose front()
// is the lightest kept pair.
class TopPairs {
 public:
  explicit TopPairs(size_t cap) : cap_(cap) { heap_.reserve(cap); }

  void Offer(const HeavyPair& e) {
    if (heap_.size() < cap_) {
      heap_.push_back(e);
      std::push_heap(heap_.begin(), heap_.end(), Heavier);
    } else if (Heavier(e, heap_.front())) {
      std::pop_heap(heap_.begin(), heap_.end(), Heavier);
      heap_.back() = e;
      std::push_heap(heap_.begin(), heap_.end(), Heavier);
    }
  }

  // -inf until the buffer is full, then the lightest kept distance. A pair
  // strictly below it can never be kept; ties are decided by indices, so
  // only a strict comparison is safe to prune on.
  double cutoff() const {
    return heap_.size() < cap_ ? -std::numeric_limits<double>::infinity()
                               : heap_.front().dist;
  }

  // The kept pairs, in no particular order; leaves the buffer empty.
  std::vector<HeavyPair> Take() { return std::move(heap_); }

 private:
  size_t cap_;
  std::vector<HeavyPair> heap_;
};

// Greedy heaviest-pair matching core shared by the matrix and dataset
// variants. `scan(cap)` must return the `cap` heaviest pairs (i < j, under
// Heavier) of currently unused rows — all of them when there are fewer — in
// any order. The greedy loop consumes them heaviest first. Exact: a chosen
// pair only removes 2 points, so the next heaviest *surviving* pair is the
// true global maximum; if the buffer runs dry (pathological overlap among
// the top pairs), it is refilled with a fresh scan over the unused rows
// only. This turns k/2 quadratic scans into ~1.
template <typename ScanFn>
std::vector<size_t> GreedyHeaviestPairs(size_t n, size_t k,
                                        std::vector<bool>& used,
                                        const ScanFn& scan) {
  std::vector<size_t> chosen;
  chosen.reserve(k);
  if (k < 2) return chosen;  // no pairs to pick; skip the scan entirely
  // Clamp to the number of pairs that can ever exist (n >= k >= 2) so large
  // k on small n does not preallocate an oversized buffer.
  const size_t cap = std::min(std::max<size_t>(4 * k * k, 64), n * (n - 1) / 2);
  std::vector<HeavyPair> buffer;
  size_t cursor = 0;
  auto rescan = [&] {
    buffer = scan(cap);
    std::sort(buffer.begin(), buffer.end(), Heavier);  // heaviest first
    cursor = 0;
  };
  rescan();
  while (chosen.size() + 1 < k) {
    while (cursor < buffer.size() &&
           (used[buffer[cursor].i] || used[buffer[cursor].j])) {
      ++cursor;
    }
    if (cursor == buffer.size()) {
      rescan();
      DIVERSE_CHECK_LT(cursor, buffer.size());
      continue;
    }
    used[buffer[cursor].i] = used[buffer[cursor].j] = true;
    chosen.push_back(buffer[cursor].i);
    chosen.push_back(buffer[cursor].j);
  }
  return chosen;
}

// Most chunks one dataset pair scan is split into. The chunk count depends
// only on the scan size and k, never on the pool size, so which pairs pay
// an exact re-evaluation (and hence every evaluation count) is the same at
// any thread count.
constexpr size_t kMaxScanChunks = 16;
// Bound on the pairs the chunk buffers of one scan keep together (24 bytes
// each: 24 MB), so large k does not multiply buffer memory.
constexpr size_t kScanPairBudget = size_t{1} << 20;

// The `cap` heaviest live pairs of `data` under `metric`, scanned through
// blocked tiles on GlobalThreadPool(). When some rows are already used (a
// refill scan), the live rows are first gathered into a columnar scratch
// Dataset so the tile sweeps touch no dead row and used rows' distances are
// never recomputed.
//
// The 64-row query blocks are dealt round-robin to chunks (block b to chunk
// b mod C; the triangle makes early blocks costlier, so dealing balances the
// chunks), and each chunk keeps its own TopPairs. The merge of the chunk
// buffers is exact: a pair lighter than the `cap` pairs its own chunk keeps
// has `cap` heavier pairs globally, so it is not in the global top `cap`,
// and the union of the chunk buffers contains the global top `cap`. When
// screening is active, each tile is computed in fp32 first and a pair is
// re-evaluated exactly only when its certified upper bound reaches its
// chunk's cutoff; the same argument makes that pruning legal.
std::vector<HeavyPair> ScanLivePairsTiled(const Dataset& data,
                                          const Metric& metric,
                                          const std::vector<bool>& used,
                                          size_t cap) {
  const size_t n = data.size();
  std::vector<uint32_t> live;
  live.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (!used[i]) live.push_back(static_cast<uint32_t>(i));
  }
  Dataset compact;
  const Dataset* src = &data;
  if (live.size() < n) {
    compact.AssignGatherColumnar(data, live);
    src = &compact;
  }
  const size_t m = live.size();
  const ScreenSideStats stats = SideStatsOf(*src);
  const bool screened =
      UseScreening(metric) && metric.ScreeningProfitableFor(stats, stats);
  ScreenBound bound;
  if (screened) bound = metric.ScreenErrorBound(stats, stats, src->dim());

  constexpr size_t kQBlock = 64;  // pair-scan tile: kQBlock x kRBlock
  constexpr size_t kRBlock = 256;
  constexpr size_t kTile = kQBlock * kRBlock;
  const size_t blocks = (m + kQBlock - 1) / kQBlock;
  const size_t chunks = std::max<size_t>(
      1, std::min({blocks, kMaxScanChunks, kScanPairBudget / cap}));
  // Buffers and tile scratch are allocated here, on the calling thread:
  // allocated on pool threads they would land in per-thread malloc arenas,
  // which keep the memory after the scan returns.
  std::vector<TopPairs> tops;
  tops.reserve(chunks);
  for (size_t c = 0; c < chunks; ++c) tops.emplace_back(cap);
  std::vector<std::vector<double>> tiles(screened ? 0 : chunks,
                                         std::vector<double>(kTile));
  std::vector<std::vector<float>> ftiles(screened ? chunks : 0,
                                         std::vector<float>(kTile));
  const float flt_max = std::numeric_limits<float>::max();

  auto scan_chunk = [&](size_t c) {
    TopPairs& top = tops[c];
    // Fused cutoff test: the chunk's cutoff is transformed ONCE into a
    // float (ScreenCertifiedBelow: s <= fcut certifies exact < cutoff
    // strictly) and refreshed only when an offer may have raised it.
    double cut = top.cutoff();
    float fcut = screened ? ScreenCertifiedBelow(cut, bound) : -1.0f;
    // Offers the pair of compacted rows qb + q, rb + r for every entry of
    // the nq x nr distance tile of those rows.
    auto sweep = [&](size_t qb, size_t nq, size_t rb, size_t nr) {
      if (!screened) {
        double* tile = tiles[c].data();
        metric.DistanceTile(*src, qb, nq, *src, rb, nr, tile, nr);
        for (size_t q = 0; q < nq; ++q) {
          for (size_t r = 0; r < nr; ++r) {
            top.Offer({tile[q * nr + r], live[qb + q], live[rb + r]});
          }
        }
        return;
      }
      float* ftile = ftiles[c].data();
      metric.DistanceTileF32(*src, qb, nq, *src, rb, nr, ftile, nr);
      for (size_t q = 0; q < nq; ++q) {
        for (size_t r = 0; r < nr; ++r) {
          float s = ftile[q * nr + r];
          if (s >= -flt_max && s <= fcut) continue;
          // A screened band hit: pay the exact distance.
          const uint32_t row = static_cast<uint32_t>(rb + r);
          double d;
          metric.DistanceRowsMany(*src, qb + q, *src, {&row, 1}, &d);
          top.Offer({d, live[qb + q], live[rb + r]});
          if (top.cutoff() != cut) {
            cut = top.cutoff();
            fcut = ScreenCertifiedBelow(cut, bound);
          }
        }
      }
    };
    for (size_t b = c; b < blocks; b += chunks) {
      const size_t ib = b * kQBlock;
      const size_t in = std::min(kQBlock, m - ib);
      // Triangular corner within the block: per-row suffix sweeps keep the
      // evaluation count at i < j pairs exactly.
      for (size_t i = ib; i + 1 < ib + in; ++i) {
        sweep(i, 1, i + 1, ib + in - i - 1);
      }
      // Rectangular panels to the right of the block.
      for (size_t jb = ib + in; jb < m; jb += kRBlock) {
        sweep(ib, in, jb, std::min(kRBlock, m - jb));
      }
    }
  };
  GlobalThreadPool().ParallelForRanges(chunks, 1, [&](size_t lo, size_t hi) {
    for (size_t c = lo; c < hi; ++c) scan_chunk(c);
  });

  std::vector<HeavyPair> merged = tops[0].Take();
  for (size_t c = 1; c < chunks; ++c) {
    std::vector<HeavyPair> kept = tops[c].Take();
    merged.insert(merged.end(), kept.begin(), kept.end());
  }
  if (merged.size() > cap) {
    std::nth_element(merged.begin(), merged.begin() + cap, merged.end(),
                     Heavier);
    merged.resize(cap);
  }
  return merged;
}

}  // namespace

std::vector<size_t> GreedyMatchingOnMatrix(const DistanceMatrix& d, size_t k) {
  size_t n = d.size();
  DIVERSE_CHECK_GE(k, 1u);
  DIVERSE_CHECK_LE(k, n);

  std::vector<bool> used(n, false);
  // Stream whole matrix rows through the buffered core: one O(n^2) scan
  // (plus rare refills over live rows only) replaces the former k/2 full
  // argmax rescans, and rows are consumed as contiguous memory instead of
  // per-element at(i, j) probes. Distances are exact (already computed), so
  // the cutoff only prunes heap probes for pairs strictly below the kept
  // buffer — which could not enter it anyway.
  std::vector<size_t> chosen =
      GreedyHeaviestPairs(n, k, used, [&](size_t cap) {
        TopPairs top(cap);
        for (size_t i = 0; i < n; ++i) {
          if (used[i]) continue;
          std::span<const double> row = d.row(i);
          for (size_t j = i + 1; j < n; ++j) {
            if (used[j] || row[j] < top.cutoff()) continue;
            top.Offer({row[j], i, j});
          }
        }
        return top.Take();
      });
  if (chosen.size() < k) {
    // Odd k: add the unused point with the largest distance sum to the
    // chosen set (any point preserves the approximation bound; this choice
    // helps in practice).
    size_t best_i = n;
    double best = -1.0;
    for (size_t i = 0; i < n; ++i) {
      if (used[i]) continue;
      double s = 0.0;
      std::span<const double> row = d.row(i);
      for (size_t c : chosen) s += row[c];
      if (s > best) {
        best = s;
        best_i = i;
      }
    }
    DIVERSE_CHECK_LT(best_i, n);
    chosen.push_back(best_i);
  }
  return chosen;
}

std::vector<size_t> GreedyMatchingOnDataset(const Dataset& data,
                                            const Metric& metric, size_t k) {
  size_t n = data.size();
  DIVERSE_CHECK_GE(k, 1u);
  DIVERSE_CHECK_LE(k, n);

  std::vector<bool> used(n, false);
  std::vector<size_t> chosen =
      GreedyHeaviestPairs(n, k, used, [&](size_t cap) {
        return ScanLivePairsTiled(data, metric, used, cap);
      });
  if (chosen.size() < k) {
    // Odd k: the same rule as GreedyMatchingOnMatrix, one batched row call
    // per candidate (summed in chosen order, as the matrix variant does).
    const std::vector<uint32_t> chosen_rows(chosen.begin(), chosen.end());
    std::vector<double> dist(chosen_rows.size());
    size_t best_i = n;
    double best = -1.0;
    for (size_t i = 0; i < n; ++i) {
      if (used[i]) continue;
      metric.DistanceRowsMany(data, i, data, chosen_rows, dist.data());
      double s = 0.0;
      for (double x : dist) s += x;
      if (s > best) {
        best = s;
        best_i = i;
      }
    }
    DIVERSE_CHECK_LT(best_i, n);
    chosen.push_back(best_i);
  }
  return chosen;
}

std::vector<size_t> GreedyMatchingOnPoints(std::span<const Point> points,
                                           const Metric& metric, size_t k) {
  return GreedyMatchingOnDataset(Dataset(points), metric, k);
}

std::vector<size_t> SolveSequentialOnMatrix(DiversityProblem problem,
                                            const DistanceMatrix& d,
                                            size_t k) {
  switch (problem) {
    case DiversityProblem::kRemoteEdge:
    case DiversityProblem::kRemoteTree:
    case DiversityProblem::kRemoteCycle:
      return GmmOnMatrix(d, k);
    case DiversityProblem::kRemoteClique:
    case DiversityProblem::kRemoteStar:
    case DiversityProblem::kRemoteBipartition:
      return GreedyMatchingOnMatrix(d, k);
  }
  return {};
}

std::vector<size_t> SolveSequential(DiversityProblem problem,
                                    const Dataset& data, const Metric& metric,
                                    size_t k) {
  switch (problem) {
    case DiversityProblem::kRemoteEdge:
    case DiversityProblem::kRemoteTree:
    case DiversityProblem::kRemoteCycle:
      return Gmm(data, metric, k).selected;
    case DiversityProblem::kRemoteClique:
    case DiversityProblem::kRemoteStar:
    case DiversityProblem::kRemoteBipartition:
      return GreedyMatchingOnDataset(data, metric, k);
  }
  return {};
}

std::vector<size_t> SolveSequential(DiversityProblem problem,
                                    std::span<const Point> points,
                                    const Metric& metric, size_t k) {
  return SolveSequential(problem, Dataset(points), metric, k);
}

std::vector<size_t> LocalSearchRemoteClique(std::span<const Point> points,
                                            const Metric& metric,
                                            std::vector<size_t> initial,
                                            size_t max_sweeps,
                                            LocalSearchScan scan) {
  size_t n = points.size();
  size_t k = initial.size();
  DIVERSE_CHECK_GE(k, 1u);
  std::vector<size_t> current = std::move(initial);
  std::vector<bool> in_set(n, false);
  for (size_t idx : current) {
    DIVERSE_CHECK_LT(idx, n);
    in_set[idx] = true;
  }

  // contribution[c] = sum of distances from current[c] to the rest of the
  // set; swapping current[c] for q changes the objective by
  // sum_d(q, set minus current[c]) - contribution[c].
  std::vector<double> contribution(k, 0.0);
  auto recompute = [&] {
    for (size_t a = 0; a < k; ++a) {
      double s = 0.0;
      for (size_t b = 0; b < k; ++b) {
        if (a != b) s += metric.Distance(points[current[a]], points[current[b]]);
      }
      contribution[a] = s;
    }
  };
  recompute();

  if (scan == LocalSearchScan::kContinue) {
    // Tiled candidate sweeps: the distances from a block of candidates to
    // the whole current set are one Q x k DistanceTile instead of k scalar
    // virtual calls per candidate, so sparse corpora run the blocked CSR
    // kernels and dense data the lane kernels. The tile entries are
    // bit-identical to the scalar Distance calls and the swap decisions
    // consume them in the same candidate order, so the search trajectory is
    // unchanged; after an accepted swap the remainder of the block is
    // recomputed against the updated set (exactly what the scalar loop saw).
    const Dataset candidates(points);
    Dataset current_rows;
    std::vector<uint32_t> current_ids;
    auto rebuild_current = [&] {
      current_ids.assign(current.begin(), current.end());
      current_rows.AssignGatherColumnar(candidates, current_ids);
    };
    rebuild_current();
    constexpr size_t kCandidateBlock = 128;
    std::vector<double> tile(kCandidateBlock * k);
    // Applies the best improving swap for candidate q given its distances
    // to the current set (dq_row[a] = d(q, current[a])), if any.
    auto try_swap = [&](size_t q, const double* dq_row) {
      double total = 0.0;
      for (size_t a = 0; a < k; ++a) total += dq_row[a];
      // Best member to evict: the one whose removal keeps the most of q's
      // contribution while dropping the least of its own.
      size_t best_a = k;
      double best_delta = 1e-9;
      for (size_t a = 0; a < k; ++a) {
        double delta = (total - dq_row[a]) - contribution[a];
        if (delta > best_delta) {
          best_delta = delta;
          best_a = a;
        }
      }
      if (best_a == k) return false;
      in_set[current[best_a]] = false;
      in_set[q] = true;
      current[best_a] = q;
      recompute();
      rebuild_current();
      return true;
    };
    for (size_t sweep = 0; sweep < max_sweeps; ++sweep) {
      bool improved = false;
      for (size_t q0 = 0; q0 < n; q0 += kCandidateBlock) {
        size_t qn = std::min(kCandidateBlock, n - q0);
        metric.DistanceTile(candidates, q0, qn, current_rows, 0, k,
                            tile.data(), k);
        for (size_t qi = 0; qi < qn; ++qi) {
          size_t q = q0 + qi;
          if (in_set[q]) continue;
          if (try_swap(q, tile.data() + qi * k)) {
            improved = true;
            if (qi + 1 < qn) {
              metric.DistanceTile(candidates, q + 1, qn - qi - 1,
                                  current_rows, 0, k,
                                  tile.data() + (qi + 1) * k, k);
            }
          }
        }
      }
      if (!improved) break;
    }
    return current;
  }

  // kRestart: the literal published local search — every candidate swap
  // (q in, current[a] out) is evaluated by recomputing the objective of the
  // swapped set from scratch (O(k^2) distances), and after every accepted
  // swap the scan restarts from the beginning. Cost is
  // O(#improvements * n * k^3); the superlinear growth of #improvements
  // with n is what Table 4 measures. `max_sweeps` caps accepted swaps as a
  // termination safety valve only.
  auto set_value = [&](const std::vector<size_t>& s) {
    double v = 0.0;
    for (size_t a = 0; a < s.size(); ++a) {
      for (size_t b = a + 1; b < s.size(); ++b) {
        v += metric.Distance(points[s[a]], points[s[b]]);
      }
    }
    return v;
  };
  double value = set_value(current);
  size_t swaps = 0;
  bool improved = true;
  std::vector<size_t> trial = current;
  while (improved && swaps < max_sweeps) {
    improved = false;
    for (size_t q = 0; q < n && !improved; ++q) {
      if (in_set[q]) continue;
      for (size_t a = 0; a < k; ++a) {
        trial = current;
        trial[a] = q;
        double v = set_value(trial);
        if (v > value + 1e-9) {
          in_set[current[a]] = false;
          in_set[q] = true;
          current[a] = q;
          value = v;
          ++swaps;
          improved = true;  // restart the scan
          break;
        }
      }
    }
  }
  return current;
}

namespace {

// gen-div of the multiset encoded by per-kernel counts, evaluated under the
// given problem (replicas of one kernel at distance 0).
double GenDivOfCounts(DiversityProblem problem, const DistanceMatrix& kernels,
                      const std::vector<size_t>& count) {
  std::vector<size_t> units;
  for (size_t i = 0; i < count.size(); ++i) {
    for (size_t c = 0; c < count[i]; ++c) units.push_back(i);
  }
  DistanceMatrix d(units.size());
  for (size_t a = 0; a < units.size(); ++a) {
    for (size_t b = a + 1; b < units.size(); ++b) {
      if (units[a] != units[b]) d.set(a, b, kernels.at(units[a], units[b]));
    }
  }
  return EvaluateDiversity(problem, d);
}

}  // namespace

GeneralizedCoreset SolveSequentialGeneralized(DiversityProblem problem,
                                              const GeneralizedCoreset& coreset,
                                              const Metric& metric, size_t k) {
  DIVERSE_CHECK_GE(coreset.ExpandedSize(), k);
  size_t s = coreset.size();

  // Work on the s distinct kernel points with multiplicity budgets, instead
  // of materializing the (s * k)^2 expansion matrix: replica distances equal
  // kernel distances, so nothing is lost.
  PointSet kernel_points;
  std::vector<size_t> budget(s);
  kernel_points.reserve(s);
  for (size_t i = 0; i < s; ++i) {
    kernel_points.push_back(coreset.entries()[i].point);
    budget[i] = std::min(coreset.entries()[i].multiplicity, k);
  }
  DistanceMatrix d(kernel_points, metric);

  // Greedy multiset selection. GMM-family (remote-tree): farthest-first over
  // distinct kernels; matching-family: heaviest-pair over kernels with
  // remaining budget. Same-kernel pairs weigh 0, so replicas only enter when
  // the budgeted distinct kernels run out.
  std::vector<size_t> count(s, 0);
  size_t selected = 0;
  auto remaining = [&](size_t i) { return budget[i] - count[i]; };

  if (problem == DiversityProblem::kRemoteTree) {
    std::vector<size_t> order = GmmOnMatrix(d, std::min(k, s));
    for (size_t i : order) {
      if (selected == k) break;
      count[i] = 1;
      ++selected;
    }
  } else {
    while (selected + 1 < k) {
      size_t best_i = s, best_j = s;
      double best = -1.0;
      for (size_t i = 0; i < s; ++i) {
        if (remaining(i) == 0) continue;
        for (size_t j = i + 1; j < s; ++j) {
          if (remaining(j) == 0) continue;
          if (d.at(i, j) > best) {
            best = d.at(i, j);
            best_i = i;
            best_j = j;
          }
        }
      }
      if (best_i == s) break;  // fewer than 2 kernels with budget left
      ++count[best_i];
      ++count[best_j];
      selected += 2;
    }
  }
  // Top up to exactly k units from the remaining budget. Among fresh
  // kernels (which add positive distance, unlike replicas) pick the one
  // with the largest distance sum to the current selection — the same rule
  // the plain matching uses for an odd last point.
  while (selected < k) {
    size_t pick = s;
    double pick_score = -1.0;
    bool pick_fresh = false;
    for (size_t i = 0; i < s; ++i) {
      if (remaining(i) == 0) continue;
      bool fresh = count[i] == 0;
      if (pick_fresh && !fresh) continue;
      double score = 0.0;
      for (size_t u = 0; u < s; ++u) {
        score += static_cast<double>(count[u]) * d.at(i, u);
      }
      if (pick == s || (fresh && !pick_fresh) || score > pick_score) {
        pick = i;
        pick_score = score;
        pick_fresh = fresh;
      }
    }
    DIVERSE_CHECK_LT(pick, s);
    ++count[pick];
    ++selected;
  }

  // Unit-move local search on the remote-clique surrogate: move one selected
  // unit from kernel x to kernel y while the multiset distance sum improves.
  // S[z] = sum_u count[u] * d(z, u).
  std::vector<size_t> improved = count;
  {
    std::vector<double> sum_to(s, 0.0);
    auto recompute = [&] {
      for (size_t z = 0; z < s; ++z) {
        double acc = 0.0;
        for (size_t u = 0; u < s; ++u) {
          acc += static_cast<double>(improved[u]) * d.at(z, u);
        }
        sum_to[z] = acc;
      }
    };
    recompute();
    bool moved = true;
    size_t guard = 0;
    while (moved && guard < 4 * k * s) {
      moved = false;
      for (size_t x = 0; x < s && !moved; ++x) {
        if (improved[x] == 0) continue;
        for (size_t y = 0; y < s; ++y) {
          if (y == x || improved[y] >= budget[y]) continue;
          double delta = (sum_to[y] - d.at(x, y)) - sum_to[x];
          if (delta > 1e-9) {
            --improved[x];
            ++improved[y];
            recompute();
            ++guard;
            moved = true;
            break;
          }
        }
      }
    }
  }
  // The surrogate targets the clique sum; keep the post-passed counts only
  // if they are at least as good under the actual objective.
  if (GenDivOfCounts(problem, d, improved) >=
      GenDivOfCounts(problem, d, count)) {
    count = improved;
  }

  GeneralizedCoreset out;
  for (size_t i = 0; i < s; ++i) {
    if (count[i] > 0) out.Add(kernel_points[i], count[i]);
  }
  DIVERSE_CHECK_EQ(out.ExpandedSize(), k);
  return out;
}

}  // namespace diverse
