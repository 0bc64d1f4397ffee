#include "streaming/sliding_window.h"

#include <algorithm>

#include "core/sequential.h"
#include "util/check.h"

namespace diverse {

SlidingWindowDiversity::SlidingWindowDiversity(
    const Metric* metric, const SlidingWindowOptions& options)
    : metric_(metric),
      options_(options),
      running_(metric, options.k, options.k_prime,
               internal_smm::OnePassMode(options.problem)) {
  DIVERSE_CHECK(metric != nullptr);
  DIVERSE_CHECK_GE(options_.k, 1u);
  DIVERSE_CHECK_GE(options_.k_prime, options_.k);
  if (options_.block == 0) {
    options_.block = std::max(options_.window / 8, options_.k_prime);
  }
  DIVERSE_CHECK_GE(options_.window, options_.block);
  // Retained full blocks: enough that the retained span always covers the
  // last `window` points once that many have arrived.
  max_blocks_ = (options_.window + options_.block - 1) / options_.block;
}

void SlidingWindowDiversity::SealBlock() {
  blocks_.push_back(running_.FinalizeCoreset());
  while (blocks_.size() > max_blocks_) blocks_.pop_front();
  running_ =
      internal_smm::SmmEngine(metric_, options_.k, options_.k_prime,
                              internal_smm::OnePassMode(options_.problem));
  // Sample the post-seal residency (sealed core-set retained, fresh
  // engine): together with the per-Update samples this makes the high-water
  // mark cover every steady state the summary passes through, including
  // blocks that are evicted again before the next Query().
  peak_stored_points_ = std::max(peak_stored_points_, StoredPoints());
}

void SlidingWindowDiversity::Update(const Point& p) {
  running_.Update(p);
  ++points_processed_;
  peak_stored_points_ = std::max(peak_stored_points_, StoredPoints());
  if (running_.points_processed() == options_.block) SealBlock();
}

StreamingResult SlidingWindowDiversity::Query() const {
  StreamingResult result;
  PointSet united;
  for (const PointSet& b : blocks_) {
    united.insert(united.end(), b.begin(), b.end());
  }
  if (running_.points_processed() > 0) {
    // The running block's core-set so far; finalizing only reads the
    // engine, so the live block is not disturbed.
    PointSet c = running_.FinalizeCoreset();
    united.insert(united.end(), c.begin(), c.end());
  }
  result.coreset_size = united.size();
  // Report the running high-water mark, not the instantaneous residency:
  // blocks sealed and evicted between queries would otherwise be invisible.
  result.peak_memory_points = std::max(peak_stored_points_, StoredPoints());
  if (united.empty()) return result;

  size_t k = std::min(options_.k, united.size());
  // Solve on a columnar re-layout of the union so the sequential step runs
  // on the batched kernels.
  Dataset united_data(std::move(united));
  std::vector<size_t> picked =
      SolveSequential(options_.problem, united_data, *metric_, k);
  result.solution.reserve(picked.size());
  for (size_t idx : picked) {
    result.solution.push_back(united_data.point(idx));
  }
  result.diversity =
      EvaluateDiversity(options_.problem, result.solution, *metric_);
  return result;
}

size_t SlidingWindowDiversity::StoredPoints() const {
  size_t total = 0;
  for (const PointSet& b : blocks_) total += b.size();
  return total + running_.StoredPoints();
}

}  // namespace diverse
