// Figure 3: throughput (points/s) of the *kernel* of the streaming
// algorithm — the per-point Update() cost, excluding data generation /
// acquisition, exactly as the paper isolates it — on the text corpus
// (cosine distance), for the same (k, k') grid as Figure 1.
//
// Paper reading: throughput is inversely proportional to both k and k',
// ranging 3,078 .. 544,920 points/s on musiXmatch (and higher, 78k..850k,
// on the cheaper synthetic distance).

#include <string>
#include <vector>

#include "bench_common.h"
#include "core/metric.h"
#include "data/sparse_text.h"
#include "data/synthetic.h"
#include "streaming/streaming_diversity.h"
#include "table.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace diverse;
  bench::Flags flags(argc, argv);
  size_t n = static_cast<size_t>(flags.GetInt("n", 20000));
  size_t n_synth = static_cast<size_t>(flags.GetInt("n_synth", 200000));

  bench::Banner("Figure 3",
                "Throughput of the streaming kernel (Update() only, stream "
                "pre-materialized in memory).\nText corpus under cosine "
                "distance; synthetic R^3 under Euclidean for contrast.");

  const std::vector<size_t> ks = {8, 32, 128};
  const std::vector<size_t> mults = {1, 2, 4, 8};

  {
    CosineMetric metric;
    SparseTextOptions opts;
    opts.n = n;
    opts.vocab_size = 5000;
    opts.num_topics = 32;
    opts.seed = 42;
    PointSet docs = GenerateSparseTextDataset(opts);

    TablePrinter table({"k", "k'", "throughput (points/s)"});
    for (size_t k : ks) {
      for (size_t mult : mults) {
        StreamingDiversity sd(&metric, DiversityProblem::kRemoteEdge, k,
                              k * mult);
        Timer timer;
        for (const Point& d : docs) sd.Update(d);
        double seconds = timer.Seconds();
        table.AddRow({TablePrinter::Fmt(static_cast<long long>(k)),
                      std::to_string(mult) + "k",
                      TablePrinter::Fmt(
                          static_cast<long long>(docs.size() / seconds))});
      }
    }
    std::printf("--- text corpus (cosine) ---\n%s\n", table.ToString().c_str());
  }

  {
    EuclideanMetric metric;
    SphereDatasetOptions opts;
    opts.n = n_synth;
    opts.k = 128;
    opts.seed = 43;
    PointSet pts = GenerateSphereDataset(opts);

    TablePrinter table({"k", "k'", "throughput (points/s)"});
    for (size_t k : ks) {
      for (size_t mult : mults) {
        StreamingDiversity sd(&metric, DiversityProblem::kRemoteEdge, k,
                              k * mult);
        Timer timer;
        for (const Point& p : pts) sd.Update(p);
        double seconds = timer.Seconds();
        table.AddRow({TablePrinter::Fmt(static_cast<long long>(k)),
                      std::to_string(mult) + "k",
                      TablePrinter::Fmt(
                          static_cast<long long>(pts.size() / seconds))});
      }
    }
    std::printf("--- synthetic R^3 (euclidean) ---\n%s\n",
                table.ToString().c_str());
  }

  std::printf("Paper (Fig. 3): throughput inversely proportional to k and "
              "k'; cosine-distance corpus\nslower than the synthetic data "
              "because each distance evaluation is costlier.\n");
  return 0;
}
