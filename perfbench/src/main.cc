// perfbench_driver: the measuring program of the end-to-end benchmark (see
// ../README.md for the workloads, metrics and how to run it).
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    [--work-dir DIR] [--git-sha SHA] [--src-digest HEX]
//   perfbench_driver --self-test
//
// One process, one request in flight: each request is sent only after the
// previous answer was checked (a closed loop with one client). Inputs are
// generated from --seed before set-up and never inside a timed region.
// With --trace 0 no request is instrumented and the result carries the
// end-to-end metrics; with --trace 1 untraced and traced requests
// alternate, the traced ones recording spans around each call into the
// library, and the result carries the per-layer metrics. The last stdout
// line is the result object; the line before it is the meta block.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "api/solve.h"
#include "checks.h"
#include "comm/comm.h"
#include "comm/socket_engine.h"
#include "core/dataset.h"
#include "core/metric.h"
#include "core/vector_kernels.h"
#include "data/io.h"
#include "mapreduce/partitioner.h"
#include "streaming/streaming_diversity.h"
#include "trace.h"
#include "util/timer.h"
#include "workloads.h"

namespace perfbench {
namespace {

using diverse::CountingMetric;
using diverse::Dataset;
using diverse::Metric;
using diverse::PointSet;
using diverse::SocketEngine;
using diverse::SocketEngineStats;
using diverse::SolveOptions;
using diverse::SolveResult;
using diverse::Status;
using diverse::StatusOr;
using diverse::Timer;

// Set-up is repeated this many times per run and reported as the median:
// more often for the socket pool, whose spawn takes milliseconds.
constexpr size_t kSetupRepsSocket = 21;
constexpr size_t kSetupRepsInMemory = 7;
// Every run times at least this many requests; the diversity metric is the
// mean over the first kFixedRequests of them, so it does not depend on how
// many requests fit in --seconds.
constexpr size_t kFixedRequests = 5;
// Streaming requests in the traced run are split into Update spans of this
// many points.
constexpr size_t kStreamBlock = 8192;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".bench_build/work";
  std::string git_sha = "unknown";
  std::string src_digest = "unknown";
  bool self_test = false;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--self-test") {
      a->self_test = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", key.c_str());
      return false;
    }
    const std::string val = argv[++i];
    if (key == "--workload") {
      a->workload = val;
    } else if (key == "--seed") {
      a->seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      a->seconds = std::atof(val.c_str());
    } else if (key == "--trace") {
      a->trace = val == "1";
    } else if (key == "--work-dir") {
      a->work_dir = val;
    } else if (key == "--git-sha") {
      a->git_sha = val;
    } else if (key == "--src-digest") {
      a->src_digest = val;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", key.c_str());
      return false;
    }
  }
  return a->self_test || !a->workload.empty();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double Sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

double MaxRssMb(int who) {
  struct rusage ru {};
  getrusage(who, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out + "\"";
}

// Per-layer values of one traced request.
struct LayerSample {
  double wall = 0.0;
  std::map<std::string, double> self;  // LayerSelfTimes
  double load = 0.0;
  double build = 0.0;
  double dataset_mb = 0.0;
  double partition = 0.0;
  double round1 = 0.0;
  double round2 = 0.0;
  double skew = 0.0;
  double attempts = 0.0;
  double retries = 0.0;
  double coreset_points = 0.0;
  double exact_evals = 0.0;
  double screened_evals = 0.0;
  double update = 0.0;
  double finalize = 0.0;
  double peak_stored = 0.0;
  double phases = 0.0;
};

// Transport counters of one request (SocketEngineStats deltas).
struct CommSample {
  double ship = 0.0;
  double reply = 0.0;
  double request_mb = 0.0;
  double chunks = 0.0;
  double hits = 0.0;
  double misses = 0.0;
  double rpc_errors = 0.0;
  double respawns = 0.0;
};

CommSample CommDelta(const SocketEngineStats& before,
                     const SocketEngineStats& after) {
  CommSample c;
  c.ship = after.ship_seconds - before.ship_seconds;
  c.reply = after.reply_seconds - before.reply_seconds;
  c.request_mb =
      static_cast<double>(after.request_bytes_sent - before.request_bytes_sent) /
      (1024.0 * 1024.0);
  c.chunks = static_cast<double>(after.chunks_sent - before.chunks_sent);
  c.hits = static_cast<double>(after.cache_hits - before.cache_hits);
  c.misses = static_cast<double>(after.cache_misses - before.cache_misses);
  c.rpc_errors = static_cast<double>(after.rpc_errors - before.rpc_errors);
  c.respawns = static_cast<double>(after.respawns - before.respawns);
  return c;
}

class Bench {
 public:
  Bench(Workload w, Args args)
      : w_(std::move(w)),
        args_(std::move(args)),
        metric_(diverse::MakeMetricByName(w_.metric)),
        counting_(metric_.get()) {}

  int Run();

 private:
  // Generates the input and performs the timed set-up (repeated).
  Status Setup();
  // One request; `seq` numbers the request (the socket workload's partition
  // seed). Returns the answer's check failure ("" when it passed).
  std::string Request(uint64_t seq, bool traced, double* wall,
                      SolveResult* answer);
  std::string UntracedRequest(const SolveOptions& o, double* wall,
                              SolveResult* answer);
  std::string TracedRequest(const SolveOptions& o, uint64_t seq, double* wall,
                            SolveResult* answer);
  // Checks of the socket workload against loopback runs of the same
  // partition seeds on the regenerated input, outside any timed region.
  size_t CheckAgainstLoopback();
  std::string MetaJson(size_t requests) const;
  void Emit(bool correct, size_t attempted, size_t failed,
            const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
                metrics, size_t requests);

  const Workload w_;
  const Args args_;
  std::unique_ptr<Metric> metric_;
  CountingMetric counting_;
  Tracer tracer_;
  std::string input_path_;
  std::vector<uint64_t> row_hashes_;
  std::optional<Dataset> data_;  // in-memory workloads
  std::unique_ptr<SocketEngine> engine_;
  std::vector<double> setup_times_;
  // Socket workload: partition seed and answer of every request.
  std::vector<std::pair<uint64_t, SolveResult>> socket_answers_;
  std::vector<LayerSample> layer_samples_;
  std::vector<CommSample> comm_samples_;  // traced requests only
};

Status Bench::Setup() {
  Timer gen_timer;
  PointSet input = GenerateInput(w_, args_.seed);
  row_hashes_ = SortedRowHashes(input);
  std::fprintf(stderr, "generated %zu points in %.2fs\n", input.size(),
               gen_timer.Seconds());
  if (w_.mode == Mode::kSocketFromFile) {
    input_path_ = args_.work_dir + "/" + w_.name + "-" +
                  std::to_string(args_.seed) + ".bin";
    if (!diverse::SavePointsBinary(input, input_path_)) {
      return diverse::UnavailableError("cannot write " + input_path_);
    }
    PointSet().swap(input);  // freed before the workers are forked
    diverse::SocketEngineOptions so;
    so.num_workers = w_.socket_workers;
    so.metric = w_.metric;
    so.problem = w_.options.problem;
    for (size_t r = 0; r < kSetupRepsSocket; ++r) {
      engine_.reset();
      Timer t;
      engine_ = std::make_unique<SocketEngine>(so);
      Status healthy = engine_->Healthy();
      setup_times_.push_back(t.Seconds());
      if (!healthy.ok()) return healthy;
    }
    return diverse::OkStatus();
  }
  for (size_t r = 0; r < kSetupRepsInMemory; ++r) {
    data_.reset();
    PointSet copy = input;
    Timer t;
    data_.emplace(std::move(copy));
    setup_times_.push_back(t.Seconds());
  }
  return diverse::OkStatus();
}

std::string Bench::UntracedRequest(const SolveOptions& o, double* wall,
                                   SolveResult* answer) {
  Timer t;
  const Dataset* data = data_ ? &*data_ : nullptr;
  // A loaded dataset is freed on return, after the clock stopped (as in
  // the traced path).
  std::optional<Dataset> loaded;
  if (w_.mode == Mode::kSocketFromFile) {
    StatusOr<Dataset> d = diverse::TryLoadDatasetBinary(input_path_);
    if (!d.ok()) {
      *wall = t.Seconds();
      return "load: " + d.status().ToString();
    }
    loaded.emplace(std::move(*d));
    data = &*loaded;
  }
  StatusOr<SolveResult> r = diverse::TrySolve(*data, *metric_, o);
  *wall = t.Seconds();
  if (!r.ok()) return "solve: " + r.status().ToString();
  *answer = std::move(*r);
  return "";
}

std::string Bench::TracedRequest(const SolveOptions& base, uint64_t seq,
                                 double* wall, SolveResult* answer) {
  LayerSample s;
  counting_.Reset();
  tracer_.BeginRequest(seq);
  SolveOptions o = base;
  std::optional<Dataset> loaded;
  const Dataset* data = data_ ? &*data_ : nullptr;
  std::unique_ptr<diverse::LoopbackEngine> loopback;
  std::unique_ptr<TracingEngine> engine;
  ScopedSpan root(&tracer_, "request", "bench", 0);
  std::string error;
  if (w_.mode == Mode::kSocketFromFile) {
    ScopedSpan load(&tracer_, "data.TryLoadPointsBinary", "data", root.id());
    StatusOr<PointSet> pts = diverse::TryLoadPointsBinary(input_path_);
    s.load = load.Finish();
    if (!pts.ok()) {
      *wall = root.Finish();
      return "load: " + pts.status().ToString();
    }
    ScopedSpan build(&tracer_, "core.Dataset", "core", root.id());
    loaded.emplace(std::move(*pts));
    s.build = build.Finish();
    data = &*loaded;
    engine = std::make_unique<TracingEngine>(engine_.get(), &tracer_, "comm");
  } else if (w_.mode == Mode::kLoopbackInMemory) {
    loopback =
        std::make_unique<diverse::LoopbackEngine>(&counting_, o.problem);
    engine = std::make_unique<TracingEngine>(loopback.get(), &tracer_, "core");
  }
  if (engine) {
    o.engine = engine.get();
    ScopedSpan solve(&tracer_, "mapreduce.TrySolve", "mapreduce", root.id());
    tracer_.SetEngineParent(solve.id());
    StatusOr<SolveResult> r = diverse::TrySolve(*data, counting_, o);
    solve.Finish();
    if (r.ok()) {
      *answer = std::move(*r);
    } else {
      error = "solve: " + r.status().ToString();
    }
  } else {
    diverse::StreamingDiversity sd(&counting_, o.problem, o.k, o.k_prime);
    for (size_t b = 0; b < data->size(); b += kStreamBlock) {
      ScopedSpan update(&tracer_, "streaming.Update", "streaming", root.id());
      const size_t e = std::min(data->size(), b + kStreamBlock);
      for (size_t i = b; i < e; ++i) sd.Update(data->point(i));
      s.update += update.Finish();
    }
    ScopedSpan fin(&tracer_, "streaming.Finalize", "streaming", root.id());
    diverse::StreamingResult sr = sd.Finalize();
    s.finalize = fin.Finish();
    answer->solution = std::move(sr.solution);
    answer->diversity = sr.diversity;
    answer->coreset_size = sr.coreset_size;
    s.peak_stored = static_cast<double>(sr.peak_memory_points);
    s.phases = static_cast<double>(sr.phases);
  }
  s.wall = root.Finish();
  *wall = s.wall;
  s.dataset_mb = static_cast<double>(data->MemoryBytes()) / (1024.0 * 1024.0);
  s.exact_evals = static_cast<double>(counting_.exact_evals());
  s.screened_evals = static_cast<double>(counting_.screened_evals());
  if (!error.empty()) return error;

  const std::vector<Span> spans = tracer_.RequestSpans(seq);
  s.self = LayerSelfTimes(spans);
  if (engine) {
    std::vector<double> coreset_durs;
    double r1_lo = 1e300;
    double r1_hi = -1e300;
    for (const Span& sp : spans) {
      if (sp.round.empty()) continue;
      s.attempts += 1.0;
      if (sp.attempt > 0) s.retries += 1.0;
      if (sp.name == "engine.Coreset") {
        coreset_durs.push_back(sp.end - sp.start);
        r1_lo = std::min(r1_lo, sp.start);
        r1_hi = std::max(r1_hi, sp.end);
      } else if (sp.name == "engine.Solve") {
        s.round2 = sp.end - sp.start;  // the last Solve call is the final one
      }
    }
    if (!coreset_durs.empty()) {
      s.round1 = r1_hi - r1_lo;
      const double med = Median(coreset_durs);
      s.skew = med > 0.0
                   ? *std::max_element(coreset_durs.begin(), coreset_durs.end()) / med
                   : 0.0;
    }
    s.coreset_points = static_cast<double>(answer->coreset_size);
    // The partition step of the driver, timed on its own with the
    // request's arguments (outside the request span).
    Timer pt;
    std::vector<PointSet> parts = diverse::PartitionPoints(
        data->points(), o.num_partitions, diverse::PartitionStrategy::kRandom,
        o.seed);
    s.partition = pt.Seconds();
  }
  if (w_.mode != Mode::kSocketFromFile) s.build = Median(setup_times_);
  layer_samples_.push_back(std::move(s));
  return "";
}

std::string Bench::Request(uint64_t seq, bool traced, double* wall,
                           SolveResult* answer) {
  SolveOptions o = w_.options;
  if (w_.mode == Mode::kSocketFromFile) {
    o.seed = seq;
    o.engine = engine_.get();
  }
  const SocketEngineStats before =
      engine_ ? engine_->stats() : SocketEngineStats{};
  std::string error = traced ? TracedRequest(o, seq, wall, answer)
                             : UntracedRequest(o, wall, answer);
  if (engine_ && traced) {
    comm_samples_.push_back(CommDelta(before, engine_->stats()));
  }
  if (!error.empty()) return error;
  error = CheckAnswer(*answer, o.k, o.problem, *metric_, row_hashes_);
  if (error.empty() && w_.mode == Mode::kSocketFromFile) {
    socket_answers_.emplace_back(seq, *answer);
  }
  return error;
}

size_t Bench::CheckAgainstLoopback() {
  Timer t;
  const Dataset data(GenerateInput(w_, args_.seed));
  size_t failed = 0;
  for (const auto& [seq, answer] : socket_answers_) {
    SolveOptions o = w_.options;
    o.seed = seq;
    StatusOr<SolveResult> ref = diverse::TrySolve(data, *metric_, o);
    std::string why = ref.ok() ? CheckSameAnswer(answer, *ref)
                               : "loopback reference failed: " +
                                     ref.status().ToString();
    if (!why.empty()) {
      ++failed;
      std::printf("FAILED check: request %llu vs loopback: %s\n",
                  static_cast<unsigned long long>(seq), why.c_str());
    }
  }
  std::fprintf(stderr, "loopback reference checks: %zu answers in %.2fs\n",
               socket_answers_.size(), t.Seconds());
  return failed;
}

std::string Bench::MetaJson(size_t requests) const {
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  const char* threads = std::getenv("DIVERSE_THREADS");
  bool avx2_cpu = false;
#if defined(__x86_64__)
  avx2_cpu = __builtin_cpu_supports("avx2");
#endif
  char buf[2048];
  std::snprintf(
      buf, sizeof(buf),
      "{\"git_sha\": %s, \"src_digest\": %s, \"cpu_model\": %s, "
      "\"nproc\": %ld, \"avx2_compiled\": %s, \"avx2_cpu\": %s, "
      "\"diverse_threads\": {\"driver\": %s, \"workers\": %s}, "
      "\"compiler\": %s, \"build_type\": %s, \"workload\": %s, "
      "\"seed\": %llu, \"input\": %s, \"n\": %zu, \"dim\": %zu, "
      "\"metric\": %s, \"problem\": %s, \"backend\": %s, \"k\": %zu, "
      "\"k_prime\": %zu, \"partitions\": %zu, \"socket_workers\": %zu, "
      "\"seconds\": %.3f, \"trace\": %d, \"requests\": %zu, "
      "\"setup_reps\": %zu, \"loop\": \"closed, 1 client\"}",
      JsonString(args_.git_sha).c_str(), JsonString(args_.src_digest).c_str(),
      JsonString(CpuModel()).c_str(), nproc,
      DIVERSE_HAVE_AVX2_KERNELS ? "true" : "false",
      avx2_cpu ? "true" : "false", threads != nullptr ? threads : "null",
      w_.mode == Mode::kSocketFromFile ? "1" : "null",
      JsonString(PERFBENCH_COMPILER).c_str(),
      JsonString(PERFBENCH_BUILD_TYPE).c_str(), JsonString(w_.name).c_str(),
      static_cast<unsigned long long>(args_.seed),
      JsonString(w_.input).c_str(), w_.n, w_.dim,
      JsonString(w_.metric).c_str(),
      JsonString(diverse::ProblemName(w_.options.problem)).c_str(),
      JsonString(diverse::BackendName(w_.options.backend)).c_str(),
      w_.options.k, w_.options.k_prime, w_.options.num_partitions,
      w_.socket_workers, args_.seconds, args_.trace ? 1 : 0, requests,
      setup_times_.size());
  return buf;
}

void Bench::Emit(
    bool correct, size_t attempted, size_t failed,
    const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
        metrics,
    size_t requests) {
  for (const auto& [name, vu] : metrics) {
    std::printf("%-30s %.6g %s\n", name.c_str(), vu.first, vu.second.c_str());
  }
  std::printf("{\"meta\": %s}\n", MetaJson(requests).c_str());
  std::string line = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].first.c_str(),
                  metrics[i].second.first, metrics[i].second.second.c_str());
    line += buf;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

int Bench::Run() {
  Status st = Setup();
  if (!st.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n", st.ToString().c_str());
    if (!input_path_.empty()) std::remove(input_path_.c_str());
    return 1;
  }
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<double> untraced_walls;
  std::vector<double> traced_walls;
  std::vector<double> diversities;
  std::optional<SolveResult> first;  // in-memory workloads: every answer equal

  auto one = [&](uint64_t seq, bool traced, bool timed) {
    double wall = 0.0;
    SolveResult answer;
    std::string why = Request(seq, traced, &wall, &answer);
    if (why.empty() && w_.mode != Mode::kSocketFromFile) {
      if (first) {
        why = CheckSameAnswer(answer, *first);
      } else {
        first = answer;
      }
    }
    if (!timed) {
      if (!why.empty()) {
        std::printf("FAILED check: warm-up request: %s\n", why.c_str());
        ++failed;
        ++attempted;
      }
      return;
    }
    ++attempted;
    std::fprintf(stderr, "request %llu%s: %.4fs\n",
                 static_cast<unsigned long long>(seq), traced ? " (traced)" : "",
                 wall);
    if (!why.empty()) {
      ++failed;
      std::printf("FAILED check: request %llu: %s\n",
                  static_cast<unsigned long long>(seq), why.c_str());
    } else if (!traced && diversities.size() < kFixedRequests) {
      diversities.push_back(answer.diversity);
    }
    (traced ? traced_walls : untraced_walls).push_back(wall);
  };

  // One untimed warm-up (seed 0, so the socket workload's timed requests
  // still ship cold): lazy pools and allocator growth happen here.
  one(0, false, false);
  Timer loop;
  // Bounds a run on a badly slowed machine, so it still ends in time.
  const double hard_stop = 2.0 * args_.seconds + 30.0;
  uint64_t seq = 1;
  for (;; ++seq) {
    const double elapsed = loop.Seconds();
    const size_t done = untraced_walls.size() + traced_walls.size();
    const size_t need = args_.trace ? 2 * kFixedRequests : kFixedRequests;
    if ((elapsed >= args_.seconds && done >= need) || elapsed >= hard_stop) {
      break;
    }
    one(seq, args_.trace && seq % 2 == 0, true);
  }
  const double self_rss = MaxRssMb(RUSAGE_SELF);
  engine_.reset();  // reaps the workers, so their peak shows below
  const double worker_rss = MaxRssMb(RUSAGE_CHILDREN);
  if (w_.mode == Mode::kSocketFromFile) {
    failed += CheckAgainstLoopback();
    std::remove(input_path_.c_str());
  }
  std::vector<std::pair<std::string, std::pair<double, std::string>>> m;
  const size_t requests = untraced_walls.size() + traced_walls.size();
  if (!args_.trace) {
    double div = 0.0;
    for (double d : diversities) div += d;
    div /= std::max<size_t>(1, diversities.size());
    const double rss =
        self_rss + (w_.mode == Mode::kSocketFromFile
                        ? worker_rss * static_cast<double>(w_.socket_workers)
                        : 0.0);
    std::printf("requests timed: %zu (solve_s is their median)\n",
                untraced_walls.size());
    m = {{"solve_s", {Median(untraced_walls), "s"}},
         {"points_per_s",
          {static_cast<double>(w_.n) * static_cast<double>(untraced_walls.size()) /
               Sum(untraced_walls),
           "1/s"}},
         {"setup_s", {Median(setup_times_), "s"}},
         {"peak_rss_mb", {rss, "MB"}},
         {"diversity", {div, "distance"}},
         {"ok_frac",
          {static_cast<double>(attempted - failed) /
               static_cast<double>(std::max<size_t>(1, attempted)),
           "ratio"}}};
  } else {
    auto med = [this](auto field) {
      std::vector<double> v;
      for (const LayerSample& s : layer_samples_) v.push_back(field(s));
      return Median(v);
    };
    auto self = [](const LayerSample& s, const char* layer) {
      auto it = s.self.find(layer);
      return it == s.self.end() ? 0.0 : it->second;
    };
    auto comm = [this](auto field) {
      std::vector<double> v;
      for (const CommSample& c : comm_samples_) v.push_back(field(c));
      return Median(v);
    };
    auto comm_total = [this](auto field) {
      double t = 0.0;
      for (const CommSample& c : comm_samples_) t += field(c);
      return t;
    };
    double coverage = 100.0;
    for (const LayerSample& s : layer_samples_) {
      coverage = std::min(coverage, 100.0 * (1.0 - self(s, "bench") / s.wall));
    }
    const double hits = comm_total([](const CommSample& c) { return c.hits; });
    const double misses =
        comm_total([](const CommSample& c) { return c.misses; });
    const double untraced = Median(untraced_walls);
    const double traced = Median(traced_walls);
    double retries = 0.0;
    for (const LayerSample& s : layer_samples_) retries += s.retries;
    std::printf("requests traced: %zu, untraced: %zu\n", traced_walls.size(),
                untraced_walls.size());
    m = {
        {"data.load_s", {med([](const LayerSample& s) { return s.load; }), "s"}},
        {"core.dataset_build_s",
         {med([](const LayerSample& s) { return s.build; }), "s"}},
        {"core.dataset_mb",
         {med([](const LayerSample& s) { return s.dataset_mb; }), "MB"}},
        {"core.self_s",
         {med([&](const LayerSample& s) { return self(s, "core"); }), "s"}},
        {"core.exact_evals",
         {med([](const LayerSample& s) { return s.exact_evals; }), "count"}},
        {"core.screened_evals",
         {med([](const LayerSample& s) { return s.screened_evals; }), "count"}},
        {"mapreduce.partition_s",
         {med([](const LayerSample& s) { return s.partition; }), "s"}},
        {"mapreduce.driver_self_s",
         {med([&](const LayerSample& s) { return self(s, "mapreduce"); }), "s"}},
        {"mapreduce.round1_s",
         {med([](const LayerSample& s) { return s.round1; }), "s"}},
        {"mapreduce.round2_s",
         {med([](const LayerSample& s) { return s.round2; }), "s"}},
        {"mapreduce.task_skew",
         {med([](const LayerSample& s) { return s.skew; }), "ratio"}},
        {"mapreduce.coreset_points",
         {med([](const LayerSample& s) { return s.coreset_points; }), "count"}},
        {"mapreduce.task_attempts",
         {med([](const LayerSample& s) { return s.attempts; }), "count"}},
        {"mapreduce.task_retries", {retries, "count"}},
        {"comm.self_s",
         {med([&](const LayerSample& s) { return self(s, "comm"); }), "s"}},
        {"comm.ship_s", {comm([](const CommSample& c) { return c.ship; }), "s"}},
        {"comm.reply_s",
         {comm([](const CommSample& c) { return c.reply; }), "s"}},
        {"comm.request_mb",
         {comm([](const CommSample& c) { return c.request_mb; }), "MB"}},
        {"comm.chunks_sent",
         {comm([](const CommSample& c) { return c.chunks; }), "count"}},
        {"comm.cache_hit_rate",
         {hits + misses > 0.0 ? hits / (hits + misses) : 0.0, "ratio"}},
        {"comm.rpc_errors",
         {comm_total([](const CommSample& c) { return c.rpc_errors; }),
          "count"}},
        {"comm.respawns",
         {comm_total([](const CommSample& c) { return c.respawns; }), "count"}},
        {"streaming.update_s",
         {med([](const LayerSample& s) { return s.update; }), "s"}},
        {"streaming.finalize_s",
         {med([](const LayerSample& s) { return s.finalize; }), "s"}},
        {"streaming.peak_stored_points",
         {med([](const LayerSample& s) { return s.peak_stored; }), "count"}},
        {"streaming.phases",
         {med([](const LayerSample& s) { return s.phases; }), "count"}},
        {"bench.self_s",
         {med([&](const LayerSample& s) { return self(s, "bench"); }), "s"}},
        {"bench.layer_coverage_pct", {coverage, "%"}},
        {"bench.traced_solve_s", {traced, "s"}},
        {"bench.trace_overhead_pct",
         {untraced > 0.0 ? 100.0 * (traced - untraced) / untraced : 0.0, "%"}},
    };
    const std::string path = args_.work_dir + "/trace-" + w_.name + "-" +
                             std::to_string(args_.seed) + ".json";
    if (tracer_.WriteChromeTrace(path, MetaJson(requests))) {
      std::fprintf(stderr, "wrote Chrome trace %s\n", path.c_str());
    }
  }
  Emit(failed == 0, attempted, failed, m, requests);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload {%s} --seed N --seconds S "
                 "--trace 0|1 [--work-dir DIR]\n       perfbench_driver "
                 "--self-test\n",
                 WorkloadNames().c_str());
    return 2;
  }
  if (args.self_test) return RunCheckSelfTest();
  Workload w;
  if (!FindWorkload(args.workload, &w)) {
    std::fprintf(stderr, "unknown workload '%s' (have: %s)\n",
                 args.workload.c_str(), WorkloadNames().c_str());
    return 2;
  }
  // Kernel threads are fixed before anything creates the global pool; the
  // socket workers inherit the setting.
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  const size_t threads =
      std::min<size_t>(w.kernel_threads, nproc > 0 ? nproc : 1);
  setenv("DIVERSE_THREADS", std::to_string(threads).c_str(), 1);
  Bench bench(std::move(w), std::move(args));
  return bench.Run();
}
