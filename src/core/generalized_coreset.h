// Generalized core-sets (Section 6 of the paper).
//
// A generalized core-set is a set of (point, multiplicity) pairs — a compact
// representation of a multiset in which each kernel point stands for itself
// plus multiplicity-1 nearby delegates that were *not* stored. Solving the
// diversity problem on the multiset (replicas at distance zero) and then
// re-materializing ("instantiating") distinct delegates from the input
// within distance delta of each kernel point loses at most f(k) * 2 * delta
// of diversity (Lemma 7). This trades the O(k k') memory of GMM-EXT/SMM-EXT
// for O(k') plus an extra pass (Streaming, Thm 9) or round (MapReduce,
// Thm 10).

#ifndef DIVERSE_CORE_GENERALIZED_CORESET_H_
#define DIVERSE_CORE_GENERALIZED_CORESET_H_

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "core/dataset.h"
#include "core/distance_matrix.h"
#include "core/diversity.h"
#include "core/metric.h"
#include "core/point.h"

namespace diverse {

/// One entry of a generalized core-set: a kernel point and the number of
/// input points it stands for (including itself), capped at k by the
/// constructions.
struct WeightedPoint {
  Point point;
  size_t multiplicity = 1;
};

/// A generalized core-set T: entries with distinct points and positive
/// multiplicities.
class GeneralizedCoreset {
 public:
  GeneralizedCoreset() = default;

  /// Appends an entry. `multiplicity` must be positive.
  void Add(Point point, size_t multiplicity);

  /// Number of stored pairs, s(T).
  size_t size() const { return entries_.size(); }

  /// Total multiplicity, m(T) — the size of the represented multiset.
  size_t ExpandedSize() const;

  const std::vector<WeightedPoint>& entries() const { return entries_; }

  /// The expansion: each point repeated multiplicity times, paired with the
  /// index of its originating entry (the "kernel id"). Two expansion elements
  /// with equal kernel id are replicas at conceptual distance 0.
  struct Expansion {
    PointSet points;
    std::vector<size_t> kernel_id;
  };
  Expansion Expand() const;

  /// Like Expand(), but keeps at most `cap` replicas per entry. A diversity
  /// solution of size k never benefits from more than k replicas of one
  /// point, so Expand with cap = k preserves gen-div_k while bounding the
  /// expansion size by s(T) * k.
  Expansion ExpandCapped(size_t cap) const;

  /// True if for every pair (p, m) of *this there is a pair (p, m') in
  /// `other` with m' >= m (the coherent-subset relation, written T1 ⊑ T2).
  bool IsCoherentSubsetOf(const GeneralizedCoreset& other) const;

  /// Union of several generalized core-sets with distinct points (the
  /// round-2 aggregation of Theorem 10). Entries are concatenated.
  static GeneralizedCoreset Merge(
      std::span<const GeneralizedCoreset> parts);

 private:
  std::vector<WeightedPoint> entries_;
};

/// Pairwise distances of an expansion under `metric`, with replicas of the
/// same kernel entry at distance 0. This is the matrix on which gen-div is
/// evaluated and on which the adapted sequential algorithms (Fact 2) run.
DistanceMatrix ExpansionDistanceMatrix(
    const GeneralizedCoreset::Expansion& expansion, const Metric& metric);

/// gen-div(T): the diversity of the (capped) expansion of `coreset`,
/// replicas at distance 0.
double EvaluateGeneralizedDiversity(DiversityProblem problem,
                                    const GeneralizedCoreset& coreset,
                                    const Metric& metric);

/// GMM-GEN(S, k, k'): the multiplicity form of GMM-EXT. Runs GMM(S, k'),
/// clusters S around the kernel, and records for entry i the size of the
/// delegate set E_i (at most k, including the center). Composable
/// generalized core-set for the four injective-proxy problems (Lemma 8).
/// If `range_out` is non-null it receives the kernel range
/// r_T = max_p d(p, kernel) — the radius within which the instantiation
/// round of Theorem 10 finds its delegates.
GeneralizedCoreset GmmGenCoreset(const Dataset& data, const Metric& metric,
                                 size_t k, size_t k_prime,
                                 double* range_out = nullptr);

/// A delta-instantiation I(T) of a generalized core-set: for each pair
/// (p, m_p), the row ids of m_p distinct delegates from `data` (including
/// p's own row when present), each within `delta` of p, disjoint across
/// pairs. Returns nullopt if `data` cannot supply enough delegates, which
/// cannot happen when T was built from `data` with the same delta used at
/// construction.
std::optional<std::vector<size_t>> Instantiate(
    const GeneralizedCoreset& coreset, const Dataset& data,
    const Metric& metric, double delta);

}  // namespace diverse

#endif  // DIVERSE_CORE_GENERALIZED_CORESET_H_
