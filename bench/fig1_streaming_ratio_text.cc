// Figure 1: approximation ratio of the streaming algorithm for different
// values of k and k' on the musiXmatch dataset (here: the synthetic sparse
// word-count substitute, cosine distance, remote-edge).
//
// Paper setup: k in {8, 32, 128}, k' in {k, 2k, 4k, 8k}, 234k docs x 5000
// dims. Paper reading: ratios start around 1.5-2.4 at k' = k and drop toward
// ~1.1-1.3 at k' = 8k; larger k is harder.
//
// Flags: --n (docs, default 20000), --vocab (default 5000), --runs
// (averaging repetitions, default 3).

#include <string>
#include <vector>

#include "bench_common.h"
#include "core/metric.h"
#include "data/sparse_text.h"
#include "streaming/streaming_diversity.h"
#include "table.h"

int main(int argc, char** argv) {
  using namespace diverse;
  bench::Flags flags(argc, argv);
  size_t n = static_cast<size_t>(flags.GetInt("n", 20000));
  uint32_t vocab = static_cast<uint32_t>(flags.GetInt("vocab", 5000));
  int runs = static_cast<int>(flags.GetInt("runs", 3));

  bench::Banner("Figure 1",
                "Streaming approximation ratio vs k and k' "
                "(text corpus, cosine distance, remote-edge).\n"
                "Ratio = best-known div / achieved div; best-known is the max "
                "over all configurations\nper (k, run), as in the paper.");

  CosineMetric metric;
  const DiversityProblem problem = DiversityProblem::kRemoteEdge;
  const std::vector<size_t> ks = {8, 32, 128};
  const std::vector<size_t> mults = {1, 2, 4, 8};

  TablePrinter table({"k", "k'", "div", "ratio"});
  for (size_t k : ks) {
    // diversity[mult][run]
    std::vector<std::vector<double>> div(mults.size(),
                                         std::vector<double>(runs, 0.0));
    for (int run = 0; run < runs; ++run) {
      // Corpus tuned the way the paper tuned musiXmatch: no easy orthogonal
      // outliers (they filtered short rare-word songs for exactly this
      // reason). A steep Zipf head shared by all documents compresses the
      // angle distribution into a continuum whose extreme k-subsets are
      // subtle, so core-set granularity (k') actually matters.
      SparseTextOptions opts;
      opts.n = n;
      opts.vocab_size = vocab;
      opts.num_topics = 0;
      opts.zipf_exponent = 1.3;
      opts.min_terms = 20;
      opts.max_terms = 150;
      opts.seed = 1000 + static_cast<uint64_t>(run);
      PointSet docs = GenerateSparseTextDataset(opts);
      for (size_t mi = 0; mi < mults.size(); ++mi) {
        StreamingDiversity sd(&metric, problem, k, k * mults[mi]);
        for (const Point& d : docs) sd.Update(d);
        div[mi][run] = sd.Finalize().diversity;
      }
    }
    for (size_t mi = 0; mi < mults.size(); ++mi) {
      double ratio_sum = 0.0, div_sum = 0.0;
      for (int run = 0; run < runs; ++run) {
        double best = 0.0;
        for (size_t mj = 0; mj < mults.size(); ++mj) {
          best = std::max(best, div[mj][run]);
        }
        ratio_sum += best / div[mi][run];
        div_sum += div[mi][run];
      }
      table.AddRow({TablePrinter::Fmt(static_cast<long long>(k)),
                    std::to_string(mults[mi]) + "k",
                    TablePrinter::Fmt(div_sum / runs, 4),
                    TablePrinter::Fmt(ratio_sum / runs, 3)});
    }
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf("Paper (Fig. 1): ratios decrease in k' (from ~1.4-2.4 at k'=k "
              "toward ~1.05-1.3 at k'=8k)\nand increase in k.\n");
  return 0;
}
