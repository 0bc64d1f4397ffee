// Sliding-window diversity maximization — an extension beyond the paper.
//
// The paper's streaming algorithms summarize the *entire* stream; many
// deployments (live feeds, monitoring) want the k most diverse items among
// the most recent W points. Composable core-sets give this almost for free
// in the time dimension: split the stream into blocks of size B, keep one
// SMM(-EXT) core-set per block for the ceil(W/B) most recent blocks, and on
// query solve the sequential problem on the union of the retained block
// core-sets (plus the running core-set of the partially-filled current
// block). A window is a disjoint union of (at most) full blocks, so the
// union of their core-sets satisfies the proxy conditions of Lemmas 1/2 for
// the window, exactly like the per-partition core-sets of the MapReduce
// algorithm do for the whole input.
//
// Window semantics are count-based and block-granular: Query() covers
// between W and W + B - 1 of the most recent points (the retained blocks
// always include the last W points; the oldest retained block may
// additionally contain up to B - 1 older points). Memory:
// O((W / B) * coreset-size) — independent of the total stream length.

#ifndef DIVERSE_STREAMING_SLIDING_WINDOW_H_
#define DIVERSE_STREAMING_SLIDING_WINDOW_H_

#include <cstddef>
#include <deque>

#include "core/diversity.h"
#include "core/metric.h"
#include "core/point.h"
#include "streaming/smm.h"
#include "streaming/streaming_diversity.h"

namespace diverse {

/// Configuration of the sliding-window summarizer.
struct SlidingWindowOptions {
  /// Diversity objective.
  DiversityProblem problem = DiversityProblem::kRemoteEdge;
  /// Solution size.
  size_t k = 8;
  /// Core-set kernel size per block (k' of the paper).
  size_t k_prime = 32;
  /// Window size in points.
  size_t window = 10000;
  /// Block size in points. 0 means "auto": max(window / 8, k').
  size_t block = 0;
};

/// Maintains per-block streaming core-sets for the last `window` points and
/// answers diversity queries over the (block-granular) window.
///
/// Thread-compatibility contract: single-threaded, like the SMM engine it
/// wraps (see smm.h) — Update mutates block state without locking. One
/// instance per stream consumer; concurrent callers must serialize
/// externally.
class SlidingWindowDiversity {
 public:
  /// `metric` must outlive this object. Requires k >= 1, k_prime >= k,
  /// window >= block.
  SlidingWindowDiversity(const Metric* metric,
                         const SlidingWindowOptions& options);

  /// Processes one stream point.
  void Update(const Point& p);

  /// Solves on the union of retained block core-sets. May be called any
  /// number of times, at any point of the stream.
  StreamingResult Query() const;

  /// Number of points processed so far.
  size_t points_processed() const { return points_processed_; }

  /// Number of retained full-block core-sets.
  size_t retained_blocks() const { return blocks_.size(); }

  /// Points currently held across all retained core-sets and the running
  /// block engine (the memory figure bounded by (W/B) * coreset size).
  size_t StoredPoints() const;

  /// High-water mark of StoredPoints() over the whole stream so far,
  /// sampled after every Update and around every block seal. Unlike
  /// StoredPoints() this is a true peak: blocks sealed and evicted between
  /// queries still count toward it. Query() reports this figure as
  /// peak_memory_points.
  size_t PeakStoredPoints() const { return peak_stored_points_; }

 private:
  // Freezes the running block into blocks_, trims expired blocks and
  // starts a fresh engine.
  void SealBlock();

  const Metric* metric_;
  SlidingWindowOptions options_;
  size_t max_blocks_ = 0;

  std::deque<PointSet> blocks_;  // frozen core-sets of full blocks
  // Engine of the currently-filling block: SMM or SMM-EXT by problem
  // family, as in StreamingDiversity.
  internal_smm::SmmEngine running_;
  size_t points_processed_ = 0;
  size_t peak_stored_points_ = 0;
};

}  // namespace diverse

#endif  // DIVERSE_STREAMING_SLIDING_WINDOW_H_
