// Distributed-runtime benchmark: the 2-round CPPU driver on the socket
// transport at 1/2/4/8 worker processes vs the in-process loopback
// baseline, on a synthetic R^3 sphere dataset (n >= 1M by default), plus a
// repeated-solve pair (socket-cold / socket-warm on one engine) that
// isolates the worker-side partition cache: the warm run ships by-ref
// stubs instead of partition bytes, and the bench reports the resulting
// ship-time speedup.
//
// The partitioning is FIXED across transport configurations (the pool size
// only changes how many RPCs are in flight), so every configuration must
// return the bit-identical solution — the bench verifies that on every row
// and refuses to report a run that diverged. Wall time therefore isolates
// pure transport cost; the per-row ship/reply split separates data
// movement from compute-plus-queueing.
//
// Output: a human-readable table plus BENCH_distributed.json (override the
// path with the BENCH_DISTRIBUTED_JSON environment variable), one record
// per configuration with meta describing the instance — CI checks the file
// for the expected worker counts, the ship-vs-compute fields and the
// warm-cache row.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "comm/socket_engine.h"
#include "core/metric.h"
#include "data/synthetic.h"
#include "mapreduce/mr_diversity.h"
#include "table.h"
#include "util/timer.h"

namespace {

struct Row {
  std::string transport;
  size_t workers = 0;
  double seconds = 0.0;
  size_t shuffle_points = 0;
  size_t coreset_size = 0;
  double diversity = 0.0;
  bool identical = true;
  // Transport split (zero on the loopback row, which has no transport).
  double ship_seconds = 0.0;
  double reply_seconds = 0.0;
  size_t request_bytes = 0;
  size_t cache_hits = 0;
  size_t cache_misses = 0;
  double cache_hit_rate = 0.0;
  // Only meaningful on the socket-warm row: cold ship_seconds / warm
  // ship_seconds of the repeated-solve pair.
  double ship_speedup_vs_cold = 0.0;
};

double HitRate(size_t hits, size_t misses) {
  const size_t total = hits + misses;
  return total == 0 ? 0.0 : static_cast<double>(hits) / total;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace diverse;
  bench::Flags flags(argc, argv);
  const size_t n = static_cast<size_t>(flags.GetInt("n", 1000000));
  const size_t k = static_cast<size_t>(flags.GetInt("k", 8));
  const size_t k_prime = static_cast<size_t>(flags.GetInt("k_prime", 16));
  const size_t partitions =
      static_cast<size_t>(flags.GetInt("partitions", 8));
  const size_t chunk_kb = static_cast<size_t>(flags.GetInt("chunk-kb", 256));
  const size_t cache_mb =
      static_cast<size_t>(flags.GetInt("worker-cache-mb", 1024));

  bench::Banner(
      "Distributed runtime",
      "2-round CPPU on the socket transport (worker processes) vs the\n"
      "in-process loopback engine. Fixed partitioning: every row must be\n"
      "bit-identical; wall-time deltas are pure transport cost. The\n"
      "cold/warm pair reruns one engine to measure the partition cache.");

  EuclideanMetric metric;
  const DiversityProblem problem = DiversityProblem::kRemoteEdge;
  SphereDatasetOptions dopts;
  dopts.n = n;
  dopts.k = k;
  dopts.seed = 6001;
  PointSet pts = GenerateSphereDataset(dopts);

  MrOptions mr;
  mr.k = k;
  mr.k_prime = k_prime;
  mr.num_partitions = partitions;
  mr.num_workers = partitions;
  mr.seed = 11;

  std::vector<Row> rows;

  MapReduceDiversity loopback_driver(&metric, problem, mr);
  Timer timer;
  StatusOr<MrResult> base = loopback_driver.TryRun(Dataset(pts));
  double base_seconds = timer.Seconds();
  if (!base.ok()) {
    std::fprintf(stderr, "loopback run failed: %s\n",
                 base.status().ToString().c_str());
    return 1;
  }
  {
    Row r;
    r.transport = "loopback";
    r.seconds = base_seconds;
    r.shuffle_points = base->shuffle_points;
    r.coreset_size = base->coreset_size;
    r.diversity = base->diversity;
    rows.push_back(r);
  }

  auto check_identical = [&base](const MrResult& run) {
    bool identical = run.solution.size() == base->solution.size() &&
                     run.diversity == base->diversity;
    for (size_t i = 0; identical && i < run.solution.size(); ++i) {
      identical = run.solution[i] == base->solution[i];
    }
    return identical;
  };

  for (size_t workers : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    SocketEngineOptions so;
    so.num_workers = workers;
    so.metric = "euclidean";
    so.problem = problem;
    so.chunk_bytes = chunk_kb * 1024;
    so.worker_cache_bytes = cache_mb << 20;
    SocketEngine engine(so);
    Status healthy = engine.Healthy();
    if (!healthy.ok()) {
      std::fprintf(stderr, "socket pool (%zu workers) failed: %s\n", workers,
                   healthy.ToString().c_str());
      return 1;
    }
    MrOptions smr = mr;
    smr.engine = &engine;
    MapReduceDiversity driver(&metric, problem, smr);
    Timer t;
    StatusOr<MrResult> run = driver.TryRun(Dataset(pts));
    double seconds = t.Seconds();
    if (!run.ok()) {
      std::fprintf(stderr, "socket run (%zu workers) failed: %s\n", workers,
                   run.status().ToString().c_str());
      return 1;
    }
    if (!check_identical(*run)) {
      std::fprintf(stderr,
                   "socket run (%zu workers) diverged from loopback — "
                   "refusing to report\n",
                   workers);
      return 1;
    }
    const SocketEngineStats stats = engine.stats();
    Row r;
    r.transport = "socket";
    r.workers = workers;
    r.seconds = seconds;
    r.shuffle_points = run->shuffle_points;
    r.coreset_size = run->coreset_size;
    r.diversity = run->diversity;
    r.ship_seconds = stats.ship_seconds;
    r.reply_seconds = stats.reply_seconds;
    r.request_bytes = stats.request_bytes_sent;
    r.cache_hits = stats.cache_hits;
    r.cache_misses = stats.cache_misses;
    r.cache_hit_rate = HitRate(stats.cache_hits, stats.cache_misses);
    rows.push_back(r);
  }

  // Repeated-solve pair: the same engine serves the driver twice. One
  // worker makes the warm routing deterministic (every partition is asked
  // of the worker that cached it), so the warm run's partition ships are
  // all by-ref stubs and the ship-time delta measures the cache, not
  // scheduling luck.
  {
    SocketEngineOptions so;
    so.num_workers = 1;
    so.metric = "euclidean";
    so.problem = problem;
    so.chunk_bytes = chunk_kb * 1024;
    so.worker_cache_bytes = cache_mb << 20;
    SocketEngine engine(so);
    Status healthy = engine.Healthy();
    if (!healthy.ok()) {
      std::fprintf(stderr, "repeated-solve pool failed: %s\n",
                   healthy.ToString().c_str());
      return 1;
    }
    MrOptions smr = mr;
    smr.engine = &engine;
    MapReduceDiversity driver(&metric, problem, smr);

    auto run_once = [&](const char* label, Row* r) {
      Timer t;
      StatusOr<MrResult> run = driver.TryRun(Dataset(pts));
      r->seconds = t.Seconds();
      if (!run.ok()) {
        std::fprintf(stderr, "%s run failed: %s\n", label,
                     run.status().ToString().c_str());
        return false;
      }
      if (!check_identical(*run)) {
        std::fprintf(stderr, "%s run diverged from loopback — refusing to "
                             "report\n",
                     label);
        return false;
      }
      r->transport = label;
      r->workers = 1;
      r->shuffle_points = run->shuffle_points;
      r->coreset_size = run->coreset_size;
      r->diversity = run->diversity;
      return true;
    };

    Row cold, warm;
    if (!run_once("socket-cold", &cold)) return 1;
    const SocketEngineStats after_cold = engine.stats();
    cold.ship_seconds = after_cold.ship_seconds;
    cold.reply_seconds = after_cold.reply_seconds;
    cold.request_bytes = after_cold.request_bytes_sent;
    cold.cache_hits = after_cold.cache_hits;
    cold.cache_misses = after_cold.cache_misses;
    cold.cache_hit_rate = HitRate(cold.cache_hits, cold.cache_misses);

    if (!run_once("socket-warm", &warm)) return 1;
    const SocketEngineStats after_warm = engine.stats();
    warm.ship_seconds = after_warm.ship_seconds - after_cold.ship_seconds;
    warm.reply_seconds = after_warm.reply_seconds - after_cold.reply_seconds;
    warm.request_bytes =
        after_warm.request_bytes_sent - after_cold.request_bytes_sent;
    warm.cache_hits = after_warm.cache_hits - after_cold.cache_hits;
    warm.cache_misses = after_warm.cache_misses - after_cold.cache_misses;
    warm.cache_hit_rate = HitRate(warm.cache_hits, warm.cache_misses);
    warm.ship_speedup_vs_cold =
        warm.ship_seconds > 0.0 ? cold.ship_seconds / warm.ship_seconds : 0.0;
    rows.push_back(cold);
    rows.push_back(warm);

    std::printf(
        "\nwarm-cache repeated solve: ship %.4fs -> %.4fs (%.1fx), "
        "%zu -> %zu request bytes, %zu cache hits\n",
        cold.ship_seconds, warm.ship_seconds, warm.ship_speedup_vs_cold,
        cold.request_bytes, warm.request_bytes, warm.cache_hits);
  }

  TablePrinter table({"transport", "workers", "time (s)", "ship (s)",
                      "reply (s)", "hit rate", "shuffle pts", "|T|", "div"});
  for (const Row& r : rows) {
    table.AddRow({r.transport,
                  r.workers == 0 ? "-" : std::to_string(r.workers),
                  TablePrinter::Fmt(r.seconds, 4),
                  TablePrinter::Fmt(r.ship_seconds, 4),
                  TablePrinter::Fmt(r.reply_seconds, 4),
                  TablePrinter::Fmt(r.cache_hit_rate, 2),
                  std::to_string(r.shuffle_points),
                  std::to_string(r.coreset_size),
                  TablePrinter::Fmt(r.diversity, 6)});
  }
  std::printf("%s", table.ToString().c_str());

  const char* env = std::getenv("BENCH_DISTRIBUTED_JSON");
  const std::string path = env != nullptr ? env : "BENCH_distributed.json";
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\n  \"meta\": {\"bench\": \"distributed\", \"n\": %zu, "
               "\"k\": %zu, \"k_prime\": %zu, \"partitions\": %zu, "
               "\"chunk_kb\": %zu, \"worker_cache_mb\": %zu, "
               "\"metric\": \"euclidean\", \"problem\": \"remote-edge\"},\n"
               "  \"runs\": [\n",
               n, k, k_prime, partitions, chunk_kb, cache_mb);
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(out,
                 "    {\"transport\": \"%s\", \"workers\": %zu, "
                 "\"seconds\": %.6f, \"ship_seconds\": %.6f, "
                 "\"reply_seconds\": %.6f, \"request_bytes\": %zu, "
                 "\"cache_hits\": %zu, \"cache_misses\": %zu, "
                 "\"cache_hit_rate\": %.4f, \"ship_speedup_vs_cold\": %.2f, "
                 "\"shuffle_points\": %zu, "
                 "\"coreset_size\": %zu, \"diversity\": %.17g, "
                 "\"identical_to_loopback\": %s}%s\n",
                 r.transport.c_str(), r.workers, r.seconds, r.ship_seconds,
                 r.reply_seconds, r.request_bytes, r.cache_hits,
                 r.cache_misses, r.cache_hit_rate, r.ship_speedup_vs_cold,
                 r.shuffle_points, r.coreset_size, r.diversity,
                 r.identical ? "true" : "false",
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("\nwrote %s\n", path.c_str());
  return 0;
}
