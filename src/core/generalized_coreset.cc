#include "core/generalized_coreset.h"

#include <algorithm>
#include <utility>

#include "core/dataset.h"
#include "core/gmm.h"
#include "core/screen.h"
#include "core/vector_kernels.h"
#include "util/check.h"

namespace diverse {

void GeneralizedCoreset::Add(Point point, size_t multiplicity) {
  DIVERSE_CHECK_GE(multiplicity, 1u);
  entries_.push_back(WeightedPoint{std::move(point), multiplicity});
}

size_t GeneralizedCoreset::ExpandedSize() const {
  size_t m = 0;
  for (const WeightedPoint& e : entries_) m += e.multiplicity;
  return m;
}

GeneralizedCoreset::Expansion GeneralizedCoreset::Expand() const {
  return ExpandCapped(SIZE_MAX);
}

GeneralizedCoreset::Expansion GeneralizedCoreset::ExpandCapped(
    size_t cap) const {
  Expansion out;
  for (size_t i = 0; i < entries_.size(); ++i) {
    size_t reps = std::min(entries_[i].multiplicity, cap);
    for (size_t r = 0; r < reps; ++r) {
      out.points.push_back(entries_[i].point);
      out.kernel_id.push_back(i);
    }
  }
  return out;
}

bool GeneralizedCoreset::IsCoherentSubsetOf(
    const GeneralizedCoreset& other) const {
  for (const WeightedPoint& e : entries_) {
    bool found = false;
    for (const WeightedPoint& o : other.entries_) {
      if (o.point == e.point && o.multiplicity >= e.multiplicity) {
        found = true;
        break;
      }
    }
    if (!found) return false;
  }
  return true;
}

GeneralizedCoreset GeneralizedCoreset::Merge(
    std::span<const GeneralizedCoreset> parts) {
  GeneralizedCoreset out;
  for (const GeneralizedCoreset& part : parts) {
    for (const WeightedPoint& e : part.entries()) {
      out.Add(e.point, e.multiplicity);
    }
  }
  return out;
}

DistanceMatrix ExpansionDistanceMatrix(
    const GeneralizedCoreset::Expansion& expansion, const Metric& metric) {
  size_t n = expansion.points.size();
  DistanceMatrix d(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      if (expansion.kernel_id[i] == expansion.kernel_id[j]) continue;  // 0
      d.set(i, j, metric.Distance(expansion.points[i], expansion.points[j]));
    }
  }
  return d;
}

double EvaluateGeneralizedDiversity(DiversityProblem problem,
                                    const GeneralizedCoreset& coreset,
                                    const Metric& metric) {
  auto expansion = coreset.Expand();
  return EvaluateDiversity(problem, ExpansionDistanceMatrix(expansion, metric));
}

GeneralizedCoreset GmmGenCoreset(const Dataset& data, const Metric& metric,
                                 size_t k, size_t k_prime,
                                 double* range_out) {
  size_t n = data.size();
  DIVERSE_CHECK_GE(k, 1u);
  DIVERSE_CHECK_GE(k_prime, 1u);
  DIVERSE_CHECK_LE(k_prime, n);
  GmmResult gmm = Gmm(data, metric, k_prime);
  if (range_out != nullptr) *range_out = gmm.range;

  // m_{c_i} = |E_i| of GMM-EXT = min(|C_i|, k): the center plus up to k-1
  // delegates, but never more than the cluster can supply.
  std::vector<size_t> cluster_size(k_prime, 0);
  for (size_t i = 0; i < n; ++i) cluster_size[gmm.assignment[i]]++;

  GeneralizedCoreset out;
  for (size_t j = 0; j < k_prime; ++j) {
    // Duplicate inputs can leave a later-selected center with an empty
    // cluster: once every point is at distance 0 from the selection, GMM
    // picks centers that tie to an earlier one, and their points assign to
    // the earliest copy. Such a center supplies no delegates (|C_i| = 0) —
    // omit it instead of tripping the multiplicity >= 1 invariant. The
    // remaining multiplicities still sum to >= min(n, k) because every
    // point belongs to exactly one cluster.
    if (cluster_size[j] == 0) continue;
    out.Add(data.point(gmm.selected[j]), std::min(cluster_size[j], k));
  }
  return out;
}

GeneralizedCoreset GmmGenCoreset(std::span<const Point> points,
                                 const Metric& metric, size_t k,
                                 size_t k_prime, double* range_out) {
  return GmmGenCoreset(Dataset(points), metric, k, k_prime,
                       range_out);
}

std::optional<PointSet> Instantiate(const GeneralizedCoreset& coreset,
                                    std::span<const Point> points,
                                    const Metric& metric, double delta) {
  const auto& entries = coreset.entries();
  std::vector<size_t> needed(entries.size());
  for (size_t e = 0; e < entries.size(); ++e) {
    needed[e] = entries[e].multiplicity;
  }

  PointSet chosen;
  std::vector<bool> used(points.size(), false);

  // First serve each entry its own kernel point if it occurs in `points`
  // (distance 0, always a legal delegate); then give each entry its m_p
  // *nearest* unused points within delta. Nearest-first keeps the realized
  // proxy distances (and hence the Lemma 7 loss f(k) * 2 * delta) as small
  // as possible in practice while preserving the worst-case guarantee.
  // Since every delegate of the construction lies within delta of its own
  // kernel point, the sweep can only run out of candidates if `points` is
  // not the originating set.
  for (size_t e = 0; e < entries.size(); ++e) {
    if (needed[e] == 0) continue;
    for (size_t i = 0; i < points.size(); ++i) {
      if (!used[i] && points[i] == entries[e].point) {
        used[i] = true;
        chosen.push_back(points[i]);
        --needed[e];
        break;
      }
    }
  }
  // Delegate search: one blocked multi-center tile sweep over the columnar
  // rows instead of one full scan per entry. Entries still in need are
  // processed in lane-sized chunks; each chunk makes a single pass over the
  // points, collecting its in-radius candidates from Q x R distance tiles,
  // and then serves the chunk's entries in order. Distances are independent
  // of the used[] bookkeeping, and candidates are filtered against used[] at
  // consumption time, so the chosen delegates are identical to the
  // scan-per-entry loop this replaces. When screening is active, the tiles
  // are fp32 and only rows whose certified lower bound reaches delta are
  // re-evaluated exactly (candidates need exact distances — the nearest-
  // first serving order sorts on them) — most of a delta-ball query's
  // complement is skipped after the float pass.
  std::vector<size_t> pending;
  for (size_t e = 0; e < entries.size(); ++e) {
    if (needed[e] > 0) pending.push_back(e);
  }
  if (!pending.empty()) {
    const Dataset data(points);
    const bool screened = UseScreening(metric);
    constexpr size_t kChunk = kernels::kTileLanes;
    constexpr size_t kRowBlock = 256;
    std::vector<double> tile(kChunk * kRowBlock);
    std::vector<float> ftile(screened ? kChunk * kRowBlock : 0);
    std::vector<uint32_t> band;   // screened in-band rows, batched rescue
    std::vector<double> band_d;
    std::vector<std::vector<std::pair<double, size_t>>> candidates(kChunk);
    for (size_t c0 = 0; c0 < pending.size(); c0 += kChunk) {
      size_t cn = std::min(kChunk, pending.size() - c0);
      Dataset queries;
      for (size_t q = 0; q < cn; ++q) {
        queries.Append(entries[pending[c0 + q]].point);
        candidates[q].clear();
      }
      const ScreenSideStats qs = SideStatsOf(queries);
      const ScreenSideStats ds = SideStatsOf(data);
      bool chunk_screened = screened && metric.ScreeningProfitableFor(qs, ds);
      ScreenBound bound;
      if (chunk_screened) bound = metric.ScreenErrorBound(qs, ds, data.dim());
      for (size_t rb = 0; rb < data.size(); rb += kRowBlock) {
        size_t rn = std::min(kRowBlock, data.size() - rb);
        if (chunk_screened) {
          metric.DistanceTileF32(queries, 0, cn, data, rb, rn, ftile.data(),
                                 rn);
          // Gather each query's in-band rows and resolve them with one
          // batched exact call (the same rescue shape as the screened
          // relax sweeps — for a delta-ball most survivors are genuine
          // candidates, so the batch is the common case, not the tail).
          for (size_t q = 0; q < cn; ++q) {
            band.clear();
            for (size_t r = 0; r < rn; ++r) {
              if (ScreenedLower(ftile[q * rn + r], bound) > delta) continue;
              band.push_back(static_cast<uint32_t>(rb + r));
            }
            if (band.empty()) continue;
            band_d.resize(band.size());
            metric.DistanceRowsMany(queries, q, data, band, band_d.data());
            for (size_t t = 0; t < band.size(); ++t) {
              if (band_d[t] <= delta) {
                candidates[q].emplace_back(band_d[t], band[t]);
              }
            }
          }
          continue;
        }
        metric.DistanceTile(queries, 0, cn, data, rb, rn, tile.data(), rn);
        for (size_t q = 0; q < cn; ++q) {
          for (size_t r = 0; r < rn; ++r) {
            double dist = tile[q * rn + r];
            if (dist <= delta) candidates[q].emplace_back(dist, rb + r);
          }
        }
      }
      for (size_t q = 0; q < cn; ++q) {
        size_t e = pending[c0 + q];
        std::sort(candidates[q].begin(), candidates[q].end());
        for (const auto& [dist, i] : candidates[q]) {
          if (needed[e] == 0) break;
          if (used[i]) continue;
          used[i] = true;
          chosen.push_back(points[i]);
          --needed[e];
        }
      }
    }
  }
  for (size_t e = 0; e < entries.size(); ++e) {
    if (needed[e] > 0) return std::nullopt;
  }
  return chosen;
}

}  // namespace diverse
