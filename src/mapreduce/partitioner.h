// Input partitioning strategies for the MapReduce algorithms.
//
// Theorems 4-6 hold for *arbitrary* partitions (that is the point of
// composable core-sets), but Section 7.2 of the paper studies how the
// partition affects practical quality: a random shuffle is the default, and
// an "adversarial" partition that confines each reducer to a region of
// small volume worsens the ratio by up to ~10%. We provide all three
// strategies used there.

#ifndef DIVERSE_MAPREDUCE_PARTITIONER_H_
#define DIVERSE_MAPREDUCE_PARTITIONER_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/dataset.h"
#include "core/metric.h"
#include "core/point.h"

namespace diverse {

/// How the input is split among reducers.
enum class PartitionStrategy : uint8_t {
  /// Contiguous equal-size blocks in input order.
  kChunked,
  /// Random shuffle, then equal-size blocks (the paper's default).
  kRandom,
  /// Sorted so that each block covers a small-volume region: all-dense
  /// inputs are sorted lexicographically by coordinates; any other input
  /// (sparse or mixed rows) by distance to row 0 (thin metric shells). This
  /// is the obfuscating partition of Section 7.2.
  kAdversarial,
};

/// Short name, e.g. "random".
std::string PartitionStrategyName(PartitionStrategy strategy);

/// Splits the rows of `data` into `num_parts` (>= 1) row-id lists of
/// (near-)equal size according to `strategy`. `metric` is needed only for
/// kAdversarial on input with sparse rows; it may be null otherwise. When
/// num_parts exceeds data.size() (including an empty input), the first
/// data.size() lists hold one row each and the tail lists are empty —
/// reducers tolerate empty inputs, so a fixed fleet size never crashes.
std::vector<std::vector<uint32_t>> PartitionRows(const Dataset& data,
                                                 size_t num_parts,
                                                 PartitionStrategy strategy,
                                                 uint64_t seed,
                                                 const Metric* metric = nullptr);

/// PartitionRows over the points (which must share one dim), with each
/// part's points copied out in row-id order.
std::vector<PointSet> PartitionPoints(std::span<const Point> points,
                                      size_t num_parts,
                                      PartitionStrategy strategy,
                                      uint64_t seed,
                                      const Metric* metric = nullptr);

}  // namespace diverse

#endif  // DIVERSE_MAPREDUCE_PARTITIONER_H_
