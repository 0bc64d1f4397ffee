#include "mapreduce/partitioner.h"

#include <algorithm>
#include <cstddef>
#include <numeric>

#include "util/check.h"
#include "util/rng.h"

namespace diverse {

std::string PartitionStrategyName(PartitionStrategy strategy) {
  switch (strategy) {
    case PartitionStrategy::kChunked:
      return "chunked";
    case PartitionStrategy::kRandom:
      return "random";
    case PartitionStrategy::kAdversarial:
      return "adversarial";
  }
  return "unknown";
}

namespace {

// Rows in input order (kChunked), or shuffled by `seed` (kRandom).
std::vector<uint32_t> InputOrder(size_t n, PartitionStrategy strategy,
                                 uint64_t seed) {
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  if (strategy == PartitionStrategy::kRandom) {
    Rng rng(seed);
    for (size_t i = n; i > 1; --i) {
      std::swap(order[i - 1], order[rng.NextBounded(i)]);
    }
  }
  return order;
}

// The kAdversarial order: lexicographic when every row is dense, else by
// distance to row 0.
std::vector<uint32_t> AdversarialOrder(const Dataset& data,
                                       const Metric* metric) {
  std::vector<uint32_t> order =
      InputOrder(data.size(), PartitionStrategy::kChunked, 0);
  if (data.sparse_stats().rows == 0) {
    const size_t dim = data.dim();
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      const float* va = data.row(a).values;
      const float* vb = data.row(b).values;
      return std::lexicographical_compare(va, va + dim, vb, vb + dim);
    });
  } else {
    DIVERSE_CHECK(metric != nullptr);
    std::vector<double> key(data.size());
    metric->DistanceToMany(data.point(0), data, 0, key);
    std::sort(order.begin(), order.end(),
              [&key](uint32_t a, uint32_t b) { return key[a] < key[b]; });
  }
  return order;
}

// Splits `order` into num_parts blocks whose sizes differ by at most one
// (some empty when num_parts exceeds the row count; see PartitionRows).
std::vector<std::vector<uint32_t>> SplitOrder(
    const std::vector<uint32_t>& order, size_t num_parts) {
  DIVERSE_CHECK_GE(num_parts, 1u);
  std::vector<std::vector<uint32_t>> parts(num_parts);
  const size_t base = order.size() / num_parts;
  const size_t extra = order.size() % num_parts;
  auto next = order.begin();
  for (size_t p = 0; p < num_parts; ++p) {
    const size_t len = base + (p < extra ? 1 : 0);
    parts[p].assign(next, next + static_cast<std::ptrdiff_t>(len));
    next += static_cast<std::ptrdiff_t>(len);
  }
  DIVERSE_CHECK(next == order.end());
  return parts;
}

}  // namespace

std::vector<std::vector<uint32_t>> PartitionRows(const Dataset& data,
                                                 size_t num_parts,
                                                 PartitionStrategy strategy,
                                                 uint64_t seed,
                                                 const Metric* metric) {
  return SplitOrder(strategy == PartitionStrategy::kAdversarial
                        ? AdversarialOrder(data, metric)
                        : InputOrder(data.size(), strategy, seed),
                    num_parts);
}

std::vector<PointSet> PartitionPoints(std::span<const Point> points,
                                      size_t num_parts,
                                      PartitionStrategy strategy,
                                      uint64_t seed, const Metric* metric) {
  // Only the adversarial order reads the rows, so only it lays them out.
  const std::vector<std::vector<uint32_t>> rows =
      SplitOrder(strategy == PartitionStrategy::kAdversarial
                     ? AdversarialOrder(Dataset(points), metric)
                     : InputOrder(points.size(), strategy, seed),
                 num_parts);
  std::vector<PointSet> parts(rows.size());
  for (size_t p = 0; p < rows.size(); ++p) {
    parts[p].reserve(rows[p].size());
    for (uint32_t r : rows[p]) parts[p].push_back(points[r]);
  }
  return parts;
}

}  // namespace diverse
