// Figure 2: approximation ratio of the streaming algorithm for different
// values of k and k' on the synthetic planted-sphere dataset in R^3
// (remote-edge). Because R^3 has small doubling dimension, the paper sweeps
// k' linearly: k' in {k, k+4, k+16, k+64}.
//
// Paper setup: 100M points. Default here: 1M (--n to change); the ratio
// curves depend on the distribution, not n, once n >> k'.
//
// Paper reading: ratios can be large (5-45) at k' = k and collapse toward 1
// already at k' = k + 64.

#include <string>
#include <vector>

#include "bench_common.h"
#include "core/metric.h"
#include "data/synthetic.h"
#include "streaming/streaming_diversity.h"
#include "table.h"

int main(int argc, char** argv) {
  using namespace diverse;
  bench::Flags flags(argc, argv);
  size_t n = static_cast<size_t>(flags.GetInt("n", 1000000));
  int runs = static_cast<int>(flags.GetInt("runs", 3));

  bench::Banner("Figure 2",
                "Streaming approximation ratio vs k and k' (synthetic R^3 "
                "planted-sphere data,\nremote-edge; linear k' progression "
                "because R^3 has small doubling dimension).");

  EuclideanMetric metric;
  const DiversityProblem problem = DiversityProblem::kRemoteEdge;
  const std::vector<size_t> ks = {8, 32, 128};
  const std::vector<size_t> adds = {0, 4, 16, 64};

  TablePrinter table({"k", "k'", "div", "ratio"});
  for (size_t k : ks) {
    std::vector<std::vector<double>> div(adds.size(),
                                         std::vector<double>(runs, 0.0));
    for (int run = 0; run < runs; ++run) {
      SphereDatasetOptions opts;
      opts.n = n;
      opts.k = k;
      opts.seed = 2000 + static_cast<uint64_t>(run);
      for (size_t ai = 0; ai < adds.size(); ++ai) {
        SphereStream stream(opts);
        StreamingDiversity sd(&metric, problem, k, k + adds[ai]);
        while (stream.HasNext()) sd.Update(stream.Next());
        div[ai][run] = sd.Finalize().diversity;
      }
    }
    for (size_t ai = 0; ai < adds.size(); ++ai) {
      double ratio_sum = 0.0, div_sum = 0.0;
      for (int run = 0; run < runs; ++run) {
        double best = 0.0;
        for (size_t aj = 0; aj < adds.size(); ++aj) {
          best = std::max(best, div[aj][run]);
        }
        ratio_sum += best / div[ai][run];
        div_sum += div[ai][run];
      }
      std::string kp = adds[ai] == 0 ? "k" : "k+" + std::to_string(adds[ai]);
      table.AddRow({TablePrinter::Fmt(static_cast<long long>(k)), kp,
                    TablePrinter::Fmt(div_sum / runs, 4),
                    TablePrinter::Fmt(ratio_sum / runs, 3)});
    }
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf("Paper (Fig. 2): large ratios (up to ~45) at k'=k, rapid drop "
              "with small additive\nincreases of k'; harder for larger k.\n");
  return 0;
}
