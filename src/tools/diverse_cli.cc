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

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
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

  // A non-negative integer flag: digits only, and the value must fit in T.
  // Any other value is a usage error that ends the process with exit code 1
  // (each command reads its integer flags before it writes a file or
  // starts a worker).
  template <typename T>
  T GetInt(const std::string& key, T def) const {
    auto it = values_.find(key);
    if (it == values_.end()) return def;
    const std::string& s = it->second;
    T value = 0;
    auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
    if (s.empty() || ec != std::errc() || end != s.data() + s.size()) {
      std::fprintf(stderr, "error: --%s expects a non-negative integer\n",
                   key.c_str());
      std::exit(1);
    }
    return value;
  }

  // A probability flag: a decimal number in [0, 1], 0 when absent. Any
  // other value (not a number, NaN, out of range) is a usage error that
  // ends the process with exit code 1.
  double GetRate(const std::string& key) const {
    auto it = values_.find(key);
    if (it == values_.end()) return 0.0;
    const std::string& s = it->second;
    double value = 0.0;
    auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
    if (s.empty() || ec != std::errc() || end != s.data() + s.size() ||
        !(value >= 0.0 && value <= 1.0)) {
      std::fprintf(stderr, "error: --%s expects a number in [0, 1]\n",
                   key.c_str());
      std::exit(1);
    }
    return value;
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
            [--k_prime=N] [--partitions=N] [--workers=N]  (N at most 256)
            [--metric=euclidean|manhattan|cosine|jaccard] [--out=FILE]
            [--screening=0|1]  (fp32 screen-then-certify sweeps, default on)
            [--indexing=0|1]   (GMM's triangle-inequality skip and greedy
                                matching's cluster-pair bound, default on)
            (both set the driver metric's policy; socket workers keep the
             defaults)
            fault tolerance (MapReduce backends):
            [--max-retries=N]      (task retries beyond the first attempt, default 2)
            [--task-timeout-ms=N]  (straggler budget per attempt; 0 = off)
            [--allow-degraded=0|1] (drop permanently failed partitions, default on)
            [--fault-seed=S --fault-rate-KIND=P ...]  (seeded stochastic faults;
             KIND in crash|empty-output|wrong-output|corrupt-partition|straggler,
             P in [0, 1])
            [--fault-spec=round:task:attempt:kind[:param],...]  (exact schedule;
             transport kinds worker-crash|conn-drop|frame-corrupt|reply-delay
             need --transport=socket to be inflicted for real)
            distributed runtime (MapReduce backends):
            [--transport=loopback|socket]  (socket = worker processes, default loopback)
            [--heartbeat-ms=N]     (idle-worker liveness probe period; 0 = off)
            [--rpc-deadline-ms=N]  (per-RPC reply deadline, default 30000)
            [--chunk-kb=N]         (streaming ship chunk size; 0 = monolithic frames)
            [--worker-cache-mb=N]  (per-worker partition cache; 0 = no caching)
            [--worker-binary=PATH] (default: diverse_worker next to this binary)
  generate  --kind=sphere|cube|text --n=N --out=FILE
            [--k=planted] [--dim=D] [--vocab=V] [--topics=T] [--seed=S]
            [--format=bin|txt]
            (N at most 10^8, N*D at most 10^9, V from 120 to 10^7)
  estimate  --in=FILE [--metric=...] [--centers=N] [--sample=N]
)");
  return 2;
}

// A well-formed integer flag whose value the command cannot use: a usage
// error with exit code 1, like a malformed one, reported before the
// command generates or writes anything.
int BelowMinimum(const char* flag, size_t minimum, const char* what = "") {
  std::fprintf(stderr, "error: --%s must be at least %zu%s\n", flag, minimum,
               what);
  return 1;
}

// A well-formed integer flag above what the command can hold: the same
// usage error, reported before anything is allocated.
int AboveMaximum(const char* flag, size_t maximum, const char* what = "") {
  std::fprintf(stderr, "error: --%s must be at most %zu%s\n", flag, maximum,
               what);
  return 1;
}

// Upper bounds of `generate`, so a huge --n, --dim or --vocab is a usage
// error instead of an allocation failure: 10^8 points, 10^9 dense
// coordinates in all, and a vocabulary whose Zipf table (8 bytes a term)
// stays at 80 MB.
constexpr size_t kMaxGeneratePoints = 100000000;
constexpr size_t kMaxGenerateCoords = 1000000000;
constexpr uint32_t kMaxVocab = 10000000;

// The largest --dim `generate` accepts for n points.
size_t MaxGenerateDim(size_t n) {
  return kMaxGenerateCoords / std::max<size_t>(n, 1);
}
constexpr const char* kDimBoundNote = " (10^9 coordinates over --n points)";

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
  policy.screening = flags.GetInt<uint32_t>("screening", 1) != 0;
  policy.indexing = flags.GetInt<uint32_t>("indexing", 1) != 0;
  auto metric = MakeMetricByName(flags.Get("metric", "euclidean"), policy);
  if (metric == nullptr) {
    std::fprintf(stderr, "error: unknown metric\n");
    return 1;
  }

  SolveOptions opts;
  opts.problem = *problem;
  opts.backend = backend;
  opts.k = flags.GetInt<size_t>("k", 8);
  opts.k_prime = flags.GetInt<size_t>("k_prime", 0);
  opts.num_partitions = flags.GetInt<size_t>("partitions", 0);
  opts.num_workers = flags.GetInt<size_t>("workers", 0);
  if (opts.num_workers > kMaxMapReduceWorkers) {
    return AboveMaximum("workers", kMaxMapReduceWorkers);
  }
  opts.seed = flags.GetInt<uint64_t>("seed", 1);
  opts.max_retries = flags.GetInt<size_t>("max-retries", 2);
  opts.task_timeout_ms = flags.GetInt<uint64_t>("task-timeout-ms", 0);
  opts.allow_degraded = flags.GetInt<uint32_t>("allow-degraded", 1) != 0;

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
  rates.crash = flags.GetRate("fault-rate-crash");
  rates.empty_output = flags.GetRate("fault-rate-empty-output");
  rates.wrong_output = flags.GetRate("fault-rate-wrong-output");
  rates.corrupt_partition = flags.GetRate("fault-rate-corrupt-partition");
  rates.straggler = flags.GetRate("fault-rate-straggler");
  if (rates.crash > 0 || rates.empty_output > 0 || rates.wrong_output > 0 ||
      rates.corrupt_partition > 0 || rates.straggler > 0) {
    faults.SetSeeded(flags.GetInt<uint64_t>("fault-seed", 1), rates);
  }
  if (!faults.empty()) opts.faults = &faults;

  // Distributed runtime: --transport=socket runs MapReduce task compute in
  // a pool of worker processes instead of in-process threads.
  const std::string transport = flags.Get("transport", "loopback");
  std::unique_ptr<SocketEngine> socket_engine;
  if (transport == "socket") {
    SocketEngineOptions so;
    so.num_workers = opts.num_workers != 0 ? opts.num_workers : 4;
    so.metric = flags.Get("metric", "euclidean");
    so.problem = *problem;
    so.worker_binary = flags.Get("worker-binary", "");
    so.heartbeat_ms = flags.GetInt<uint64_t>("heartbeat-ms", 0);
    so.rpc_deadline_ms = flags.GetInt<uint64_t>("rpc-deadline-ms", 30000);
    // Byte counts that do not fit in size_t are usage errors, not wraps.
    const size_t chunk_kb = flags.GetInt<size_t>("chunk-kb", 256);
    const size_t cache_mb = flags.GetInt<size_t>("worker-cache-mb", 64);
    if (chunk_kb > (SIZE_MAX >> 10)) {
      return AboveMaximum("chunk-kb", SIZE_MAX >> 10);
    }
    if (cache_mb > (SIZE_MAX >> 20)) {
      return AboveMaximum("worker-cache-mb", SIZE_MAX >> 20);
    }
    so.chunk_bytes = chunk_kb << 10;
    so.worker_cache_bytes = cache_mb << 20;
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
  size_t n = flags.GetInt<size_t>("n", 10000);
  uint64_t seed = flags.GetInt<uint64_t>("seed", 1);
  if (n > kMaxGeneratePoints) return AboveMaximum("n", kMaxGeneratePoints);

  PointSet pts;
  if (kind == "sphere") {
    SphereDatasetOptions o;
    o.n = n;
    o.k = flags.GetInt<size_t>("k", 8);
    o.dim = flags.GetInt<size_t>("dim", 3);
    o.seed = seed;
    if (o.n < o.k) return BelowMinimum("n", o.k, " (the planted --k)");
    if (o.dim == 0) return BelowMinimum("dim", 1);
    if (o.dim > MaxGenerateDim(n)) {
      return AboveMaximum("dim", MaxGenerateDim(n), kDimBoundNote);
    }
    pts = GenerateSphereDataset(o);
  } else if (kind == "cube") {
    size_t dim = flags.GetInt<size_t>("dim", 3);
    if (dim > MaxGenerateDim(n)) {
      return AboveMaximum("dim", MaxGenerateDim(n), kDimBoundNote);
    }
    pts = GenerateUniformCube(n, dim, seed);
  } else if (kind == "text") {
    SparseTextOptions o;
    o.n = n;
    o.vocab_size = flags.GetInt<uint32_t>("vocab", 5000);
    o.num_topics = flags.GetInt<size_t>("topics", 32);
    o.seed = seed;
    if (o.vocab_size < o.max_terms) {
      return BelowMinimum("vocab", o.max_terms,
                          " (the most distinct terms a document holds)");
    }
    if (o.vocab_size > kMaxVocab) return AboveMaximum("vocab", kMaxVocab);
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
  opts.num_centers = flags.GetInt<size_t>("centers", 32);
  opts.max_sample = flags.GetInt<size_t>("sample", 2000);
  if (opts.max_sample == 0) return BelowMinimum("sample", 1);
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
