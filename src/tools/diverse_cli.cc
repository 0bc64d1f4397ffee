// diverse — command-line driver for the diversity maximization library.
//
// Subcommands:
//   solve     pick k diverse points from a dataset file
//   generate  write a synthetic dataset (sphere | cube | text) to a file
//   estimate  estimate the doubling dimension of a dataset
//
// Examples:
//   diverse generate --kind=sphere --n=100000 --k=16 --out=data.bin
//   diverse solve --in=data.bin --problem=remote-edge --k=16
//       --backend=mapreduce --k_prime=64 --partitions=8
//   diverse estimate --in=data.bin --metric=euclidean
//
// Datasets are the library's text (.txt) or binary (.bin, default) formats;
// see data/io.h.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "api/solve.h"
#include "comm/socket_engine.h"
#include "core/doubling.h"
#include "core/metric.h"
#include "data/io.h"
#include "data/sparse_text.h"
#include "data/synthetic.h"

namespace diverse {
namespace {

// --key=value flags after the subcommand.
class CliFlags {
 public:
  CliFlags(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) continue;
      size_t eq = arg.find('=');
      if (eq == std::string::npos) {
        values_.insert_or_assign(arg.substr(2), std::string("1"));
      } else {
        values_.insert_or_assign(arg.substr(2, eq - 2), arg.substr(eq + 1));
      }
    }
  }

  std::string Get(const std::string& key, const std::string& def) const {
    auto it = values_.find(key);
    return it == values_.end() ? def : it->second;
  }

  long long GetInt(const std::string& key, long long def) const {
    auto it = values_.find(key);
    return it == values_.end() ? def : std::atoll(it->second.c_str());
  }

 private:
  std::map<std::string, std::string> values_;
};

int Usage() {
  std::fprintf(stderr, R"(usage: diverse <command> [--flags]

commands:
  solve     --in=FILE --problem=remote-edge|remote-clique|remote-star|
            remote-bipartition|remote-tree|remote-cycle --k=N
            [--backend=sequential|streaming|streaming-2pass|mapreduce|
             mapreduce-randomized|mapreduce-generalized|mapreduce-recursive]
            [--k_prime=N] [--partitions=N] [--workers=N]
            [--metric=euclidean|manhattan|cosine|jaccard] [--out=FILE]
            [--screening=0|1]  (fp32 screen-then-certify sweeps, default on)
            [--indexing=0|1]   (cover-tree metric-index tier, default on)
            (both set the driver metric's policy; socket workers keep the
             defaults)
            fault tolerance (MapReduce backends):
            [--max-retries=N]      (task retries beyond the first attempt, default 2)
            [--task-timeout-ms=N]  (straggler budget per attempt; 0 = off)
            [--allow-degraded=0|1] (drop permanently failed partitions, default on)
            [--fault-seed=S --fault-rate-KIND=P ...]  (seeded stochastic faults;
             KIND in crash|empty-output|wrong-output|corrupt-partition|straggler)
            [--fault-spec=round:task:attempt:kind[:param],...]  (exact schedule;
             transport kinds worker-crash|conn-drop|frame-corrupt|reply-delay
             need --transport=socket to be inflicted for real)
            distributed runtime (MapReduce backends):
            [--transport=loopback|socket]  (socket = worker processes, default loopback)
            [--tree-reduce=0|1]    (binary merge tree over core-sets, default off)
            [--heartbeat-ms=N]     (idle-worker liveness probe period; 0 = off)
            [--rpc-deadline-ms=N]  (per-RPC reply deadline, default 30000)
            [--chunk-kb=N]         (streaming ship chunk size; 0 = monolithic frames)
            [--worker-cache-mb=N]  (per-worker partition cache; 0 = no caching)
            [--worker-binary=PATH] (default: diverse_worker next to this binary)
  generate  --kind=sphere|cube|text --n=N --out=FILE
            [--k=planted] [--dim=D] [--vocab=V] [--topics=T] [--seed=S]
            [--format=bin|txt]
  estimate  --in=FILE [--metric=...] [--centers=N] [--sample=N]
)");
  return 2;
}

bool IsTextPath(const std::string& path) {
  return path.size() > 4 && path.substr(path.size() - 4) == ".txt";
}

bool SaveAny(const PointSet& pts, const std::string& path,
             const std::string& format) {
  bool text = format == "txt" || IsTextPath(path);
  return text ? SavePointsText(pts, path) : SavePointsBinary(pts, path);
}

int RunSolve(const CliFlags& flags) {
  std::string in = flags.Get("in", "");
  if (in.empty()) return Usage();
  StatusOr<Dataset> data =
      IsTextPath(in) ? TryLoadDatasetText(in) : TryLoadDatasetBinary(in);
  if (!data.ok()) {
    std::fprintf(stderr, "error: %s\n", data.status().ToString().c_str());
    return 1;
  }
  if (data->empty()) {
    std::fprintf(stderr, "error: dataset %s is empty\n", in.c_str());
    return 1;
  }
  auto problem = ParseProblem(flags.Get("problem", "remote-edge"));
  if (!problem.has_value()) {
    std::fprintf(stderr, "error: unknown problem\n");
    return 1;
  }
  bool backend_ok = true;
  Backend backend =
      ParseBackend(flags.Get("backend", "sequential"), &backend_ok);
  if (!backend_ok) {
    std::fprintf(stderr, "error: unknown backend\n");
    return 1;
  }
  // The builtin-metric registry (core/metric.h) — one name table shared
  // with the socket transport, which ships metric *names* to workers.
  KernelPolicy policy;
  policy.screening = flags.GetInt("screening", 1) != 0;
  if (flags.GetInt("indexing", 1) == 0) policy.indexing = IndexPolicy::kOff;
  auto metric = MakeMetricByName(flags.Get("metric", "euclidean"), policy);
  if (metric == nullptr) {
    std::fprintf(stderr, "error: unknown metric\n");
    return 1;
  }

  SolveOptions opts;
  opts.problem = *problem;
  opts.backend = backend;
  opts.k = static_cast<size_t>(flags.GetInt("k", 8));
  opts.k_prime = static_cast<size_t>(flags.GetInt("k_prime", 0));
  opts.num_partitions = static_cast<size_t>(flags.GetInt("partitions", 0));
  opts.num_workers = static_cast<size_t>(flags.GetInt("workers", 0));
  opts.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  opts.max_retries = static_cast<size_t>(flags.GetInt("max-retries", 2));
  opts.task_timeout_ms =
      static_cast<uint64_t>(flags.GetInt("task-timeout-ms", 0));
  opts.allow_degraded = flags.GetInt("allow-degraded", 1) != 0;

  // Fault injection: an explicit --fault-spec schedule, a seeded stochastic
  // layer (--fault-seed + --fault-rate-*), or both.
  FaultInjector faults;
  std::string fault_spec = flags.Get("fault-spec", "");
  if (!fault_spec.empty()) {
    StatusOr<FaultInjector> parsed = FaultInjector::Parse(fault_spec);
    if (!parsed.ok()) {
      std::fprintf(stderr, "error: %s\n", parsed.status().ToString().c_str());
      return 1;
    }
    faults = std::move(*parsed);
  }
  FaultRates rates;
  rates.crash = std::atof(flags.Get("fault-rate-crash", "0").c_str());
  rates.empty_output =
      std::atof(flags.Get("fault-rate-empty-output", "0").c_str());
  rates.wrong_output =
      std::atof(flags.Get("fault-rate-wrong-output", "0").c_str());
  rates.corrupt_partition =
      std::atof(flags.Get("fault-rate-corrupt-partition", "0").c_str());
  rates.straggler = std::atof(flags.Get("fault-rate-straggler", "0").c_str());
  if (rates.crash > 0 || rates.empty_output > 0 || rates.wrong_output > 0 ||
      rates.corrupt_partition > 0 || rates.straggler > 0) {
    faults.SetSeeded(static_cast<uint64_t>(flags.GetInt("fault-seed", 1)),
                     rates);
  }
  if (!faults.empty()) opts.faults = &faults;

  // Distributed runtime: --transport=socket runs MapReduce task compute in
  // a pool of worker processes instead of in-process threads.
  opts.tree_reduce = flags.GetInt("tree-reduce", 0) != 0;
  const std::string transport = flags.Get("transport", "loopback");
  std::unique_ptr<SocketEngine> socket_engine;
  if (transport == "socket") {
    SocketEngineOptions so;
    so.num_workers = opts.num_workers != 0 ? opts.num_workers : 4;
    so.metric = flags.Get("metric", "euclidean");
    so.problem = *problem;
    so.worker_binary = flags.Get("worker-binary", "");
    so.heartbeat_ms = static_cast<uint64_t>(flags.GetInt("heartbeat-ms", 0));
    so.rpc_deadline_ms =
        static_cast<uint64_t>(flags.GetInt("rpc-deadline-ms", 30000));
    so.chunk_bytes =
        static_cast<size_t>(flags.GetInt("chunk-kb", 256)) * 1024;
    so.worker_cache_bytes =
        static_cast<size_t>(flags.GetInt("worker-cache-mb", 64)) << 20;
    socket_engine = std::make_unique<SocketEngine>(so);
    Status healthy = socket_engine->Healthy();
    if (!healthy.ok()) {
      std::fprintf(stderr, "error: %s\n", healthy.ToString().c_str());
      return 1;
    }
    opts.engine = socket_engine.get();
  } else if (transport != "loopback") {
    std::fprintf(stderr, "error: unknown transport '%s' (loopback|socket)\n",
                 transport.c_str());
    return 1;
  }

  StatusOr<SolveResult> solved = TrySolve(*data, *metric, opts);
  if (!solved.ok()) {
    std::fprintf(stderr, "error: %s\n", solved.status().ToString().c_str());
    return 1;
  }
  SolveResult result = std::move(*solved);
  std::printf("n:          %zu\n", data->size());
  std::printf("problem:    %s\n", ProblemName(*problem).c_str());
  std::printf("backend:    %s\n", BackendName(backend).c_str());
  if (socket_engine != nullptr) {
    const SocketEngineStats stats = socket_engine->stats();
    std::printf("transport:  socket (%zu workers, %zu respawns, %zu rpc errors)\n",
                stats.workers_spawned - stats.respawns, stats.respawns,
                stats.rpc_errors);
    std::printf("shipping:   %zu bytes, %zu cache hits / %zu misses, "
                "%.3f s ship / %.3f s reply\n",
                stats.request_bytes_sent, stats.cache_hits, stats.cache_misses,
                stats.ship_seconds, stats.reply_seconds);
  }
  std::printf("solution:   %zu points\n", result.solution.size());
  std::printf("diversity:  %.6f\n", result.diversity);
  std::printf("coreset:    %zu points\n", result.coreset_size);
  std::printf("time:       %.3f s\n", result.seconds);
  if (result.degraded.has_value()) {
    const DegradedResult& d = *result.degraded;
    std::printf("DEGRADED:   %zu partition(s) permanently lost\n",
                d.failed_partitions.size());
    std::printf("  surviving:    %zu / %zu points (%.1f%%)\n",
                d.surviving_points, d.total_points,
                100.0 * d.surviving_fraction);
    std::printf(
        "  guarantee:    within factor %.1f of the optimum over the "
        "surviving points\n",
        d.approx_factor);
  }

  std::string out = flags.Get("out", "");
  if (!out.empty()) {
    if (!SaveAny(result.solution, out, flags.Get("format", "bin"))) {
      std::fprintf(stderr, "error: cannot write %s\n", out.c_str());
      return 1;
    }
    std::printf("solution written to %s\n", out.c_str());
  } else {
    for (const Point& p : result.solution) {
      std::printf("  %s\n", p.ToString().c_str());
    }
  }
  return 0;
}

int RunGenerate(const CliFlags& flags) {
  std::string out = flags.Get("out", "");
  std::string kind = flags.Get("kind", "sphere");
  if (out.empty()) return Usage();
  size_t n = static_cast<size_t>(flags.GetInt("n", 10000));
  uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));

  PointSet pts;
  if (kind == "sphere") {
    SphereDatasetOptions o;
    o.n = n;
    o.k = static_cast<size_t>(flags.GetInt("k", 8));
    o.dim = static_cast<size_t>(flags.GetInt("dim", 3));
    o.seed = seed;
    pts = GenerateSphereDataset(o);
  } else if (kind == "cube") {
    pts = GenerateUniformCube(n, static_cast<size_t>(flags.GetInt("dim", 3)),
                              seed);
  } else if (kind == "text") {
    SparseTextOptions o;
    o.n = n;
    o.vocab_size = static_cast<uint32_t>(flags.GetInt("vocab", 5000));
    o.num_topics = static_cast<size_t>(flags.GetInt("topics", 32));
    o.seed = seed;
    pts = GenerateSparseTextDataset(o);
  } else {
    std::fprintf(stderr, "error: unknown kind %s\n", kind.c_str());
    return 1;
  }
  if (!SaveAny(pts, out, flags.Get("format", "bin"))) {
    std::fprintf(stderr, "error: cannot write %s\n", out.c_str());
    return 1;
  }
  std::printf("wrote %zu %s points to %s\n", pts.size(), kind.c_str(),
              out.c_str());
  return 0;
}

int RunEstimate(const CliFlags& flags) {
  std::string in = flags.Get("in", "");
  if (in.empty()) return Usage();
  StatusOr<PointSet> points =
      IsTextPath(in) ? TryLoadPointsText(in) : TryLoadPointsBinary(in);
  if (!points.ok()) {
    std::fprintf(stderr, "error: %s\n", points.status().ToString().c_str());
    return 1;
  }
  if (points->size() < 2) {
    std::fprintf(stderr, "error: dataset %s has fewer than 2 points\n",
                 in.c_str());
    return 1;
  }
  auto metric = MakeMetricByName(flags.Get("metric", "euclidean"));
  if (metric == nullptr) {
    std::fprintf(stderr, "error: unknown metric\n");
    return 1;
  }
  DoublingEstimateOptions opts;
  opts.num_centers = static_cast<size_t>(flags.GetInt("centers", 32));
  opts.max_sample = static_cast<size_t>(flags.GetInt("sample", 2000));
  DoublingEstimate est = EstimateDoublingDimension(*points, *metric, opts);
  std::printf("points:            %zu\n", points->size());
  std::printf("probes:            %zu\n", est.probes);
  std::printf("worst cover size:  %zu\n", est.worst_cover_size);
  std::printf("doubling dim est:  %.2f\n", est.dimension);
  std::printf("suggested k'/k at eps=0.5 (MapReduce GMM, (8/eps)^D): %.0f\n",
              std::pow(16.0, est.dimension));
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string cmd = argv[1];
  CliFlags flags(argc, argv, 2);
  if (cmd == "solve") return RunSolve(flags);
  if (cmd == "generate") return RunGenerate(flags);
  if (cmd == "estimate") return RunEstimate(flags);
  return Usage();
}

}  // namespace
}  // namespace diverse

int main(int argc, char** argv) { return diverse::Main(argc, argv); }
