// End-to-end streaming diversity maximization.
//
//   * StreamingDiversity — the 1-pass algorithm of Theorem 3: run SMM
//     (remote-edge / remote-cycle) or SMM-EXT (the other four problems) over
//     the stream, then run the sequential alpha-approximation on the
//     in-memory core-set. Approximation alpha + eps, memory independent of
//     the stream length.
//   * TwoPassStreamingDiversity — the algorithm of Theorem 9 for the four
//     injective-proxy problems: pass 1 builds a *generalized* core-set with
//     SMM-GEN and solves the multiset problem on it (Fact 2); pass 2
//     materializes ("instantiates") distinct delegates for each selected
//     kernel point. Approximation alpha + eps with memory O((alpha^2/eps)^D k)
//     — a factor k less than the 1-pass variant.

#ifndef DIVERSE_STREAMING_STREAMING_DIVERSITY_H_
#define DIVERSE_STREAMING_STREAMING_DIVERSITY_H_

#include <cstddef>
#include <vector>

#include "core/dataset.h"
#include "core/diversity.h"
#include "core/generalized_coreset.h"
#include "core/metric.h"
#include "core/point.h"
#include "streaming/smm.h"

namespace diverse {

/// Outcome of a streaming run.
struct StreamingResult {
  /// The k (or fewer, if the stream was shorter) selected points.
  PointSet solution;
  /// div(solution) under the configured objective.
  double diversity = 0.0;
  /// Size of the core-set the sequential algorithm ran on.
  size_t coreset_size = 0;
  /// Peak number of points held in memory during the pass(es).
  size_t peak_memory_points = 0;
  /// Number of SMM phases executed.
  size_t phases = 0;
};

/// One-pass streaming diversity maximization (Theorem 3).
class StreamingDiversity {
 public:
  /// `metric` must outlive this object. Requires 1 <= k <= k_prime.
  /// k_prime controls core-set size and hence accuracy: theory wants
  /// k' = (32/eps')^D k (SMM) or (64/eps')^D k (SMM-EXT); in practice small
  /// multiples of k already give ratios close to 1 (paper Section 7.1).
  StreamingDiversity(const Metric* metric, DiversityProblem problem, size_t k,
                     size_t k_prime);

  /// Processes one stream point.
  void Update(const Point& p);

  /// Streams every row of a columnar dataset through Update().
  void UpdateAll(const Dataset& data);

  /// Ends the stream: solves on the core-set (itself re-laid out as a
  /// columnar Dataset for the batched sequential solve) and returns the
  /// solution.
  StreamingResult Finalize();

  /// Peak in-memory points so far (exposed for Table 3 accounting).
  size_t peak_memory_points() const { return peak_memory_; }

 private:
  const Metric* metric_;
  DiversityProblem problem_;
  size_t k_;
  // SMM (kCentersOnly) or SMM-EXT (kDelegates), chosen by problem family.
  internal_smm::SmmEngine engine_;
  size_t peak_memory_ = 0;
};

/// Two-pass streaming algorithm for remote-clique / -star / -bipartition /
/// -tree (Theorem 9). Drive it as:
///   pass 1: UpdateFirstPass(p) for each point; then EndFirstPass();
///   pass 2: UpdateSecondPass(p) for each point; then Finalize().
class TwoPassStreamingDiversity {
 public:
  /// Requires an injective-proxy problem (see RequiresInjectiveProxies).
  TwoPassStreamingDiversity(const Metric* metric, DiversityProblem problem,
                            size_t k, size_t k_prime);

  void UpdateFirstPass(const Point& p);

  /// Streams every row of a columnar dataset through UpdateFirstPass().
  void UpdateAllFirstPass(const Dataset& data);

  /// Solves the multiset problem on the generalized core-set, fixing the
  /// kernel points and multiplicities the second pass must instantiate.
  void EndFirstPass();

  void UpdateSecondPass(const Point& p);

  /// Streams every row of a columnar dataset through UpdateSecondPass().
  void UpdateAllSecondPass(const Dataset& data);

  /// Returns the instantiated solution (k distinct input points).
  StreamingResult Finalize();

  /// The instantiation radius delta used in pass 2.
  double delta() const { return delta_; }

 private:
  const Metric* metric_;
  DiversityProblem problem_;
  size_t k_;
  SmmGen smm_gen_;
  GeneralizedCoreset selected_;
  double delta_ = 0.0;
  bool first_pass_done_ = false;
  // Pass-2 state: candidates[j] collects delegates for selected_ entry j.
  std::vector<PointSet> candidates_;
  size_t peak_memory_ = 0;
  size_t phases_ = 0;
  size_t coreset_size_ = 0;
};

}  // namespace diverse

#endif  // DIVERSE_STREAMING_STREAMING_DIVERSITY_H_
