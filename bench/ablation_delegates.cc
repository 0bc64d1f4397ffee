// Ablation: delegate strategies for the injective-proxy problems.
//
// The design space DESIGN.md calls out: how many nearby witnesses should a
// core-set carry per kernel point?
//   * full delegates (k-1 per cluster)      — deterministic Theorem 6,
//   * capped delegates (max(log n, k/l))    — randomized Theorem 7,
//   * multiplicities only + instantiation   — generalized Theorem 10,
//   * no delegates at all                   — the (unsound for these
//     problems) kernel-only core-set, as a control showing why delegates
//     exist.
// Reported: aggregate core-set size vs achieved remote-clique diversity.

#include <vector>

#include "bench_common.h"
#include "core/coreset.h"
#include "core/metric.h"
#include "core/sequential.h"
#include "data/synthetic.h"
#include "mapreduce/mr_diversity.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace diverse;
  bench::Flags flags(argc, argv);
  size_t n = static_cast<size_t>(flags.GetInt("n", 100000));
  size_t k = static_cast<size_t>(flags.GetInt("k", 32));
  size_t k_prime = static_cast<size_t>(flags.GetInt("k_prime", 32));
  size_t parts = static_cast<size_t>(flags.GetInt("parts", 8));
  int runs = static_cast<int>(flags.GetInt("runs", 3));

  bench::Banner("Ablation: delegate strategies",
                "Aggregate core-set size vs remote-clique quality for the "
                "four ways of witnessing\ninjective proxies (n = 100k "
                "planted-sphere R^3, k = 32, k' = 32, 8 partitions).");

  EuclideanMetric metric;
  const DiversityProblem problem = DiversityProblem::kRemoteClique;

  struct Row {
    const char* name;
    double coreset = 0.0;
    double div = 0.0;
  };
  Row rows[] = {{"full delegates (Thm 6)"},
                {"capped delegates (Thm 7)"},
                {"multiplicities (Thm 10)"},
                {"kernel only (control)"}};

  for (int run = 0; run < runs; ++run) {
    SphereDatasetOptions dopts;
    dopts.n = n;
    dopts.k = k;
    dopts.seed = 9000 + static_cast<uint64_t>(run);
    PointSet pts = GenerateSphereDataset(dopts);

    MrOptions base;
    base.k = k;
    base.k_prime = k_prime;
    base.num_partitions = parts;
    base.num_workers = 4;
    base.seed = 20 + static_cast<uint64_t>(run);

    {
      MapReduceDiversity mr(&metric, problem, base);
      MrResult r = bench::OrDie(mr.TryRun(Dataset(pts)));
      rows[0].coreset += static_cast<double>(r.coreset_size);
      rows[0].div += r.diversity;
    }
    {
      MrOptions o = base;
      o.randomized_delegate_cap = true;
      MapReduceDiversity mr(&metric, problem, o);
      MrResult r = bench::OrDie(mr.TryRun(Dataset(pts)));
      rows[1].coreset += static_cast<double>(r.coreset_size);
      rows[1].div += r.diversity;
    }
    {
      MapReduceDiversity mr(&metric, problem, base);
      MrResult r = bench::OrDie(mr.TryRunGeneralized(Dataset(pts)));
      rows[2].coreset += static_cast<double>(r.coreset_size);
      rows[2].div += r.diversity;
    }
    {
      // Control: run the remote-EDGE pipeline's kernel-only core-set but
      // solve remote-clique on it. The union still has >= k points, but the
      // injective-proxy guarantee is gone.
      MapReduceDiversity mr(&metric, DiversityProblem::kRemoteEdge, base);
      // Build kernel-only core-sets by hand through the public pieces:
      auto partitions = PartitionPoints(pts, parts, base.partition, base.seed,
                                        &metric);
      PointSet united;
      for (const auto& part : partitions) {
        PointSet c = GmmCoreset(part, metric, k_prime).points;
        united.insert(united.end(), c.begin(), c.end());
      }
      std::vector<size_t> picked =
          SolveSequential(problem, united, metric, k);
      rows[3].coreset += static_cast<double>(united.size());
      rows[3].div += bench::SolutionDiversity(problem, united, picked, metric);
    }
  }

  TablePrinter table({"strategy", "aggregate coreset (pts)", "remote-clique div"});
  for (const Row& r : rows) {
    table.AddRow({r.name, TablePrinter::Fmt(r.coreset / runs, 0),
                  TablePrinter::Fmt(r.div / runs, 2)});
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf(
      "Reading: capped delegates shrink the aggregate core-set at nearly no "
      "quality cost\n(Thm 7); multiplicities shrink it by another factor k "
      "for a small instantiation loss\n(Thm 10) — the cheapest memory/"
      "quality point; kernel-only looks similar here but\nforfeits the "
      "injective-proxy worst-case guarantee (it can return < k usable "
      "points\nwhen optima cluster inside single cells).\n");
  return 0;
}
