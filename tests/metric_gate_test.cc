// The kernel-selection gates of every metric, pinned as a literal table.
//
// Screening (Metric::ScreeningProfitableFor), the fused screened tile relax
// (Metric::RelaxTileScreeningProfitableFor) and the metric index
// (UseIndexing) each decide from dataset statistics alone which kernel a
// sweep runs. Either verdict is bit-identical, so no oracle suite notices a
// flipped gate — only the cost moves. This table fixes every verdict for
// the four built-in metrics and a user-defined metric, over dense, sparse,
// mixed and empty data, with point queries and with dataset queries.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/cover_tree.h"
#include "core/dataset.h"
#include "core/metric.h"
#include "core/screen.h"

namespace diverse {
namespace {

constexpr uint32_t kDim = 8;

Point DenseRow(uint32_t seed) {
  std::vector<float> v(kDim);
  for (uint32_t j = 0; j < kDim; ++j) {
    v[j] = static_cast<float>((seed * 7 + j * 3) % 11) + 0.5f;
  }
  return Point::Dense(std::move(v));
}

Point SparseRow(uint32_t seed) {
  return Point::Sparse({seed % 4, 4 + seed % 4},
                       {1.0f + static_cast<float>(seed), 2.0f}, kDim);
}

Dataset Layout(const std::string& name) {
  Dataset d;
  if (name == "empty") return d;
  for (uint32_t i = 0; i < 12; ++i) {
    bool sparse = name == "sparse" || (name == "mixed" && i % 3 != 0);
    d.Append(sparse ? SparseRow(i) : DenseRow(i));
  }
  return d;
}

// A user-defined metric: overrides nothing but Distance and Name.
class DiscreteMetric final : public Metric {
 public:
  explicit DiscreteMetric(KernelPolicy policy = {}) : Metric(policy) {}
  double Distance(const Point& a, const Point& b) const override {
    return a == b ? 0.0 : 1.0;
  }
  std::string Name() const override { return "discrete"; }
};

std::vector<std::unique_ptr<Metric>> GateMetrics(KernelPolicy policy = {}) {
  std::vector<std::unique_ptr<Metric>> metrics;
  metrics.push_back(std::make_unique<EuclideanMetric>(policy));
  metrics.push_back(std::make_unique<ManhattanMetric>(policy));
  metrics.push_back(std::make_unique<CosineMetric>(policy));
  metrics.push_back(std::make_unique<JaccardMetric>(policy));
  metrics.push_back(std::make_unique<DiscreteMetric>(policy));
  return metrics;
}

bool ScreenGate(const Metric& m, const Point& q, const Dataset& d) {
  return m.ScreeningProfitableFor(SideStatsOf(q), SideStatsOf(d));
}

bool ScreenGate(const Metric& m, const Dataset& q, const Dataset& d) {
  return m.ScreeningProfitableFor(SideStatsOf(q), SideStatsOf(d));
}

bool RelaxTileGate(const Metric& m, const Dataset& q, const Dataset& d) {
  return m.RelaxTileScreeningProfitableFor(SideStatsOf(q), SideStatsOf(d));
}

std::string Verdicts(const std::vector<bool>& v) {
  std::string s;
  for (bool b : v) s += b ? '1' : '0';
  return s;
}

// One row per (data, query) pair. Verdict strings list the metrics in
// GateMetrics() order: euclidean, manhattan, cosine, jaccard, discrete.
// Point queries have no relax-tile gate ("-").
struct GateRow {
  const char* data;
  const char* query;  // "point-dense", "point-sparse" or a layout name
  const char* screen;
  const char* relax_tile;
};

constexpr GateRow kGateTable[] = {
    {"dense", "point-dense", "11100", "-"},
    {"dense", "point-sparse", "11000", "-"},
    {"dense", "dense", "11100", "11100"},
    {"dense", "sparse", "11000", "11000"},
    {"dense", "mixed", "11000", "11000"},
    {"dense", "empty", "11100", "11100"},
    {"sparse", "point-dense", "11000", "-"},
    {"sparse", "point-sparse", "11000", "-"},
    {"sparse", "dense", "11000", "11000"},
    {"sparse", "sparse", "11000", "11100"},
    {"sparse", "mixed", "11000", "11000"},
    {"sparse", "empty", "11000", "11000"},
    {"mixed", "point-dense", "11000", "-"},
    {"mixed", "point-sparse", "11000", "-"},
    {"mixed", "dense", "11000", "11000"},
    {"mixed", "sparse", "11000", "11000"},
    {"mixed", "mixed", "11000", "11000"},
    {"mixed", "empty", "11000", "11000"},
    {"empty", "point-dense", "11100", "-"},
    {"empty", "point-sparse", "11000", "-"},
    {"empty", "dense", "11100", "11100"},
    {"empty", "sparse", "11000", "11000"},
    {"empty", "mixed", "11000", "11000"},
    {"empty", "empty", "11100", "11100"},
};

TEST(MetricGateTable, ScreeningAndRelaxTileVerdicts) {
  auto metrics = GateMetrics();
  for (const GateRow& row : kGateTable) {
    Dataset data = Layout(row.data);
    std::string query = row.query;
    std::string ctx = std::string(row.data) + " <- " + query;
    std::vector<bool> screen, relax_tile;
    for (const auto& m : metrics) {
      if (query == "point-dense" || query == "point-sparse") {
        Point q = query == "point-dense" ? DenseRow(5) : SparseRow(5);
        screen.push_back(ScreenGate(*m, q, data));
      } else {
        Dataset queries = Layout(query);
        screen.push_back(ScreenGate(*m, queries, data));
        relax_tile.push_back(RelaxTileGate(*m, queries, data));
      }
    }
    EXPECT_EQ(Verdicts(screen), row.screen) << ctx;
    if (!relax_tile.empty()) {
      EXPECT_EQ(Verdicts(relax_tile), row.relax_tile) << ctx;
    }
  }
}

TEST(MetricGateTable, IndexingVerdicts) {
  // Indexing is a property of the metric: the four built-ins are genuine
  // metrics with a certified rounding slack, a user-defined distance is
  // never pruned with.
  auto metrics = GateMetrics();
  for (const char* layout : {"dense", "sparse", "mixed", "empty"}) {
    Dataset data = Layout(layout);
    std::vector<bool> index;
    for (const auto& m : metrics) index.push_back(UseIndexing(*m, data));
    EXPECT_EQ(Verdicts(index), "11110") << layout;
  }
  for (const auto& m : GateMetrics({.indexing = IndexPolicy::kOff})) {
    EXPECT_FALSE(UseIndexing(*m, Layout("dense"))) << m->Name();
  }
}

}  // namespace
}  // namespace diverse
