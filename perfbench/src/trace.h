// In-memory span recorder of the benchmark's traced run, and the
// CommunicationEngine decorator that records one span per engine call.
//
// Spans are recorded only by benchmark code around calls into the
// library's public functions (nothing inside src/ is instrumented). Each
// span names its layer — one of the library's modules: data, core,
// mapreduce, comm, streaming — or "bench" for the request span itself.
// Spans stay in memory; WriteChromeTrace dumps them at exit as Chrome
// trace-event JSON, which opens in Perfetto or chrome://tracing.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "comm/comm.h"

namespace perfbench {

/// One timed interval. Times are seconds since the tracer was created.
struct Span {
  uint64_t id = 0;
  /// Span that caused this one; 0 for a request's root span.
  uint64_t parent = 0;
  /// Request the span belongs to (shared by every span of one request).
  uint64_t request = 0;
  std::string name;
  std::string layer;
  double start = 0.0;
  double end = 0.0;
  /// Small per-thread track number (the Chrome trace "tid").
  int track = 0;
  /// Engine calls only: the executor attempt the call served.
  std::string round;
  size_t task = 0;
  size_t attempt = 0;
  bool ok = true;
};

/// Thread-safe span sink. One request is open at a time (the benchmark is
/// a closed loop), so the request id and the parent of engine-call spans
/// are tracer-wide rather than thread-local: engine calls arrive on the
/// MapReduce executor's threads, not on the thread that opened the request.
class Tracer {
 public:
  Tracer();

  /// Seconds since construction (steady clock).
  double Now() const;

  /// Opens request `request` (ids start at 1); spans recorded until the
  /// next BeginRequest carry it.
  void BeginRequest(uint64_t request) { request_.store(request); }

  /// Parent id given to engine-call spans (the open solve span).
  void SetEngineParent(uint64_t parent) { engine_parent_.store(parent); }
  uint64_t engine_parent() const { return engine_parent_.load(); }

  /// Reserves a span id, so children can name a parent before it closes.
  uint64_t NewId() { return next_id_.fetch_add(1); }

  /// Records a finished span; fills in request and track.
  void Record(Span span);

  /// All spans of one request, in recording order.
  std::vector<Span> RequestSpans(uint64_t request) const;

  /// Writes every span as Chrome trace-event JSON. `meta_json` (a JSON
  /// object) goes under "otherData". False on I/O failure.
  bool WriteChromeTrace(const std::string& path,
                        const std::string& meta_json) const;

 private:
  int TrackOfThisThread();

  const std::chrono::steady_clock::time_point epoch_;
  std::atomic<uint64_t> next_id_{1};
  std::atomic<uint64_t> request_{0};
  std::atomic<uint64_t> engine_parent_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
  std::map<size_t, int> tracks_;  // thread-id hash -> track, guarded by mu_
};

/// Times one interval of benchmark code and records it on Finish (or at
/// scope exit). `tracer` must outlive the span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, std::string layer,
             uint64_t parent);
  ~ScopedSpan() { Finish(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return span_.id; }
  /// Records the span now; later calls do nothing. Returns its duration.
  double Finish();

 private:
  Tracer* tracer_;
  Span span_;
  bool open_ = true;
};

/// Wall time of a request split by layer. Every instant of the root span
/// is charged to the deepest span open at that instant, so concurrent
/// sibling spans (parallel engine calls) count once, and the shares add up
/// to the root's duration exactly. "bench" is what no layer span covers.
std::map<std::string, double> LayerSelfTimes(const std::vector<Span>& spans);

/// CommunicationEngine decorator: forwards every call to `inner` and
/// records a span per call under `layer`, parented to the tracer's engine
/// parent. It adds nothing else: WantsPartitionCacheKeys and BackendName
/// are the inner engine's.
class TracingEngine final : public diverse::CommunicationEngine {
 public:
  /// `inner` and `tracer` must outlive this engine.
  TracingEngine(diverse::CommunicationEngine* inner, Tracer* tracer,
                std::string layer);

  std::string BackendName() const override { return inner_->BackendName(); }
  bool WantsPartitionCacheKeys() const override {
    return inner_->WantsPartitionCacheKeys();
  }

  diverse::StatusOr<diverse::PointSet> Coreset(
      const diverse::TaskEnvelope& env, const diverse::PointSet& part,
      const diverse::CoresetSpec& spec) override;
  diverse::StatusOr<diverse::GenCoresetResult> GenCoreset(
      const diverse::TaskEnvelope& env, const diverse::PointSet& part,
      size_t k, size_t k_prime) override;
  diverse::StatusOr<diverse::PointSet> MergeCoresets(
      const diverse::TaskEnvelope& env, const diverse::PointSet& a,
      const diverse::PointSet& b) override;
  diverse::StatusOr<diverse::PointSet> Solve(
      const diverse::TaskEnvelope& env, const diverse::PointSet& aggregate,
      size_t k) override;
  diverse::StatusOr<diverse::GeneralizedCoreset> GenSolve(
      const diverse::TaskEnvelope& env,
      const diverse::GeneralizedCoreset& merged, size_t k) override;
  diverse::StatusOr<diverse::PointSet> Instantiate(
      const diverse::TaskEnvelope& env,
      const diverse::GeneralizedCoreset& selected,
      const diverse::PointSet& part, double range) override;

 private:
  // Records the call that ran from `start` until now.
  void RecordCall(const char* name, const diverse::TaskEnvelope& env,
                  double start, bool ok);

  diverse::CommunicationEngine* inner_;
  Tracer* tracer_;
  std::string layer_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
