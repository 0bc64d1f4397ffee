// End-to-end tests of the multi-process runtime (comm/socket_engine.h):
// fault-free socket runs must be bit-identical to the in-process loopback
// simulator, and every transport fault — injected SIGKILL, dropped
// connection, corrupted frame, delayed reply, plus an unscripted external
// kill — must recover through the executor's retry machinery or degrade
// into a certified DegradedResult, deterministically under a fixed fault
// schedule.

#include <signal.h>

#include <chrono>
#include <cstddef>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "comm/socket_engine.h"
#include "core/metric.h"
#include "data/synthetic.h"
#include "mapreduce/fault_injector.h"
#include "mapreduce/mr_diversity.h"

namespace diverse {
namespace {

bool SamePoints(const PointSet& a, const PointSet& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!(a[i] == b[i])) return false;
  }
  return true;
}

// A small mixed dense input; sparse variant built from its coordinates.
PointSet DenseInput() { return GenerateGaussianBlobs(160, 4, 3, 0.05, 11); }

PointSet SparseInput() {
  PointSet dense = DenseInput();
  PointSet sparse;
  sparse.reserve(dense.size());
  // Spread each point's coords over a wider sparse dimension, keeping one
  // explicit stored zero so the CSR path is genuinely exercised end to end.
  for (const Point& p : dense) {
    const std::vector<float>& v = p.dense_values();
    std::vector<uint32_t> idx;
    std::vector<float> val;
    for (size_t j = 0; j < v.size(); ++j) {
      idx.push_back(static_cast<uint32_t>(3 * j + 1));
      val.push_back(j == 0 ? v[j] : (v[j] == 0.0f ? 0.25f : v[j]));
    }
    sparse.push_back(Point::Sparse(std::move(idx), std::move(val), 16));
  }
  return sparse;
}

MrOptions BaseOptions() {
  MrOptions o;
  o.k = 6;
  o.k_prime = 8;
  o.num_partitions = 4;
  o.num_workers = 4;
  o.seed = 5;
  return o;
}

SocketEngineOptions SocketOptions(const std::string& metric,
                                  DiversityProblem problem) {
  SocketEngineOptions so;
  so.num_workers = 2;
  so.metric = metric;
  so.problem = problem;
  so.rpc_deadline_ms = 20000;
  return so;
}

struct MetricCase {
  const Metric* metric;
  std::string name;
};

// ---------------------------------------------------------------------------
// Fault-free bit-identity: socket == loopback.

TEST(DistributedTest, TwoRoundDriverMatchesLoopbackAcrossMetricsAndLayouts) {
  EuclideanMetric euclid;
  ManhattanMetric manhattan;
  const MetricCase cases[] = {{&euclid, "euclidean"},
                              {&manhattan, "manhattan"}};
  const DiversityProblem problem = DiversityProblem::kRemoteEdge;
  for (const MetricCase& mc : cases) {
    SocketEngine socket(SocketOptions(mc.name, problem));
    ASSERT_TRUE(socket.Healthy().ok()) << socket.Healthy().ToString();
    for (const PointSet& input : {DenseInput(), SparseInput()}) {
      MrOptions opts = BaseOptions();
      MapReduceDiversity loopback_mr(mc.metric, problem, opts);
      StatusOr<MrResult> base = loopback_mr.TryRun(Dataset(input));
      ASSERT_TRUE(base.ok()) << base.status().ToString();

      opts.engine = &socket;
      MapReduceDiversity socket_mr(mc.metric, problem, opts);
      StatusOr<MrResult> remote = socket_mr.TryRun(Dataset(input));
      ASSERT_TRUE(remote.ok()) << remote.status().ToString();

      EXPECT_TRUE(SamePoints(base->solution, remote->solution))
          << mc.name << ": socket solution diverged from loopback";
      EXPECT_EQ(base->diversity, remote->diversity) << mc.name;
      EXPECT_EQ(base->coreset_size, remote->coreset_size) << mc.name;
      EXPECT_FALSE(remote->degraded.has_value());
    }
  }
}

TEST(DistributedTest, GeneralizedDriverMatchesLoopback) {
  EuclideanMetric euclid;
  ManhattanMetric manhattan;
  const MetricCase cases[] = {{&euclid, "euclidean"},
                              {&manhattan, "manhattan"}};
  // An injective-proxy problem exercises GMM-GEN + gen-solve + instantiate.
  const DiversityProblem problem = DiversityProblem::kRemoteClique;
  for (const MetricCase& mc : cases) {
    SocketEngine socket(SocketOptions(mc.name, problem));
    ASSERT_TRUE(socket.Healthy().ok()) << socket.Healthy().ToString();
    for (const PointSet& input : {DenseInput(), SparseInput()}) {
      MrOptions opts = BaseOptions();
      MapReduceDiversity loopback_mr(mc.metric, problem, opts);
      StatusOr<MrResult> base = loopback_mr.TryRunGeneralized(Dataset(input));
      ASSERT_TRUE(base.ok()) << base.status().ToString();

      opts.engine = &socket;
      MapReduceDiversity socket_mr(mc.metric, problem, opts);
      StatusOr<MrResult> remote = socket_mr.TryRunGeneralized(Dataset(input));
      ASSERT_TRUE(remote.ok()) << remote.status().ToString();

      EXPECT_TRUE(SamePoints(base->solution, remote->solution)) << mc.name;
      EXPECT_EQ(base->diversity, remote->diversity) << mc.name;
      EXPECT_FALSE(remote->degraded.has_value());
    }
  }
}

// ---------------------------------------------------------------------------
// Injected transport faults: each must recover to the fault-free result.

struct TransportFaultCase {
  const char* schedule;
  const char* name;
  uint64_t rpc_deadline_ms;
  // Crash, drop and timeout all kill + respawn the worker; frame
  // corruption leaves the stream in sync and must NOT cost a respawn.
  bool expect_respawn;
};

TEST(DistributedTest, InjectedTransportFaultsRecoverBitIdentically) {
  EuclideanMetric metric;
  const PointSet input = DenseInput();
  MrOptions opts = BaseOptions();
  MapReduceDiversity clean(&metric, DiversityProblem::kRemoteEdge, opts);
  StatusOr<MrResult> base = clean.TryRun(Dataset(input));
  ASSERT_TRUE(base.ok());

  const TransportFaultCase cases[] = {
      {"coreset:1:0:worker-crash", "worker crash", 20000, true},
      {"coreset:2:0:conn-drop", "connection drop", 20000, true},
      {"coreset:0:0:frame-corrupt", "frame corruption", 20000, false},
      // The 800ms injected delay must lose the race against this deadline.
      {"solve:0:0:reply-delay:800", "reply delay", 200, true},
  };
  for (const TransportFaultCase& tc : cases) {
    StatusOr<FaultInjector> faults = FaultInjector::Parse(tc.schedule);
    ASSERT_TRUE(faults.ok()) << tc.schedule;
    SocketEngineOptions so =
        SocketOptions("euclidean", DiversityProblem::kRemoteEdge);
    so.rpc_deadline_ms = tc.rpc_deadline_ms;
    SocketEngine socket(so);
    ASSERT_TRUE(socket.Healthy().ok());

    MrOptions faulty = opts;
    faulty.faults = &*faults;
    faulty.engine = &socket;
    MapReduceDiversity mr(&metric, DiversityProblem::kRemoteEdge, faulty);
    StatusOr<MrResult> result = mr.TryRun(Dataset(input));
    ASSERT_TRUE(result.ok()) << tc.name << ": " << result.status().ToString();
    EXPECT_TRUE(SamePoints(base->solution, result->solution)) << tc.name;
    EXPECT_EQ(base->diversity, result->diversity) << tc.name;
    EXPECT_FALSE(result->degraded.has_value()) << tc.name;
    EXPECT_GE(result->task_retries, 1u) << tc.name;
    EXPECT_GE(result->faults_injected, 1u) << tc.name;
    EXPECT_GE(socket.stats().rpc_errors, 1u) << tc.name;
    if (tc.expect_respawn) {
      EXPECT_GE(socket.stats().respawns, 1u) << tc.name;
    } else {
      EXPECT_EQ(socket.stats().respawns, 0u) << tc.name;
    }
  }
}

// The same schedules on the loopback engine simulate the identical error
// taxonomy — backends are interchangeable under a fixed fault schedule.
TEST(DistributedTest, TransportFaultsSimulateIdenticallyOnLoopback) {
  EuclideanMetric metric;
  const PointSet input = DenseInput();
  MrOptions opts = BaseOptions();
  MapReduceDiversity clean(&metric, DiversityProblem::kRemoteEdge, opts);
  StatusOr<MrResult> base = clean.TryRun(Dataset(input));
  ASSERT_TRUE(base.ok());

  StatusOr<FaultInjector> faults = FaultInjector::Parse(
      "coreset:1:0:worker-crash,coreset:2:0:conn-drop,"
      "coreset:0:0:frame-corrupt,solve:0:0:reply-delay:800");
  ASSERT_TRUE(faults.ok());
  MrOptions faulty = opts;
  faulty.faults = &*faults;
  MapReduceDiversity mr(&metric, DiversityProblem::kRemoteEdge, faulty);
  StatusOr<MrResult> result = mr.TryRun(Dataset(input));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(SamePoints(base->solution, result->solution));
  EXPECT_GE(result->task_retries, 4u);
  EXPECT_EQ(result->faults_injected, 4u);
}

// A corrupted partition copy (one garbled row) on each partition round —
// coreset, gen-coreset, instantiate — is caught by the driver's input
// validation before the engine call, and the retry gathers the pristine
// rows: both engines recover the fault-free loopback answer bit for bit.
TEST(DistributedTest, CorruptPartitionRecoversBitIdenticallyOnEveryRound) {
  EuclideanMetric metric;
  const DiversityProblem problem = DiversityProblem::kRemoteClique;
  const Dataset input(DenseInput());
  MrOptions opts = BaseOptions();
  MapReduceDiversity clean(&metric, problem, opts);
  StatusOr<MrResult> base = clean.TryRun(input);
  StatusOr<MrResult> base_gen = clean.TryRunGeneralized(input);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  ASSERT_TRUE(base_gen.ok()) << base_gen.status().ToString();

  // Which instantiate tasks own a selected point depends on the run, so
  // every one corrupts its first attempt (tasks without one never read
  // their partition, and never retry).
  StatusOr<FaultInjector> two_round =
      FaultInjector::Parse("coreset:1:0:corrupt-partition:7");
  StatusOr<FaultInjector> three_round = FaultInjector::Parse(
      "gen-coreset:2:0:corrupt-partition:5,"
      "instantiate:0:0:corrupt-partition:3,"
      "instantiate:1:0:corrupt-partition:3,"
      "instantiate:2:0:corrupt-partition:3,"
      "instantiate:3:0:corrupt-partition:3");
  ASSERT_TRUE(two_round.ok());
  ASSERT_TRUE(three_round.ok());

  SocketEngine socket(SocketOptions("euclidean", problem));
  ASSERT_TRUE(socket.Healthy().ok()) << socket.Healthy().ToString();
  for (CommunicationEngine* engine :
       {static_cast<CommunicationEngine*>(nullptr),
        static_cast<CommunicationEngine*>(&socket)}) {
    const std::string name = engine == nullptr ? "loopback" : "socket";
    MrOptions faulty = opts;
    faulty.engine = engine;
    faulty.faults = &*two_round;
    StatusOr<MrResult> got =
        MapReduceDiversity(&metric, problem, faulty).TryRun(input);
    ASSERT_TRUE(got.ok()) << name << ": " << got.status().ToString();
    EXPECT_TRUE(SamePoints(base->solution, got->solution)) << name;
    EXPECT_EQ(base->diversity, got->diversity) << name;
    EXPECT_EQ(got->task_retries, 1u) << name;
    EXPECT_FALSE(got->degraded.has_value()) << name;

    faulty.faults = &*three_round;
    StatusOr<MrResult> got_gen =
        MapReduceDiversity(&metric, problem, faulty).TryRunGeneralized(input);
    ASSERT_TRUE(got_gen.ok()) << name << ": " << got_gen.status().ToString();
    EXPECT_TRUE(SamePoints(base_gen->solution, got_gen->solution)) << name;
    EXPECT_EQ(base_gen->diversity, got_gen->diversity) << name;
    // The gen-coreset retry plus at least one instantiate retry.
    EXPECT_GE(got_gen->task_retries, 2u) << name;
    EXPECT_FALSE(got_gen->degraded.has_value()) << name;
  }
}

// ---------------------------------------------------------------------------
// Permanent transport failure degrades deterministically.

TEST(DistributedTest, PersistentWorkerCrashDegradesDeterministically) {
  EuclideanMetric metric;
  const PointSet input = DenseInput();
  // Crash every attempt of partition 1: the task exhausts its budget and
  // the run must complete degraded on the surviving partitions.
  StatusOr<FaultInjector> faults = FaultInjector::Parse(
      "coreset:1:0:worker-crash,coreset:1:1:worker-crash,"
      "coreset:1:2:worker-crash");
  ASSERT_TRUE(faults.ok());

  MrOptions opts = BaseOptions();
  opts.faults = &*faults;
  MapReduceDiversity loopback_mr(&metric, DiversityProblem::kRemoteEdge, opts);
  StatusOr<MrResult> base = loopback_mr.TryRun(Dataset(input));
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  ASSERT_TRUE(base->degraded.has_value());

  for (int repeat = 0; repeat < 2; ++repeat) {
    SocketEngine socket(
        SocketOptions("euclidean", DiversityProblem::kRemoteEdge));
    ASSERT_TRUE(socket.Healthy().ok());
    MrOptions sopts = opts;
    sopts.engine = &socket;
    MapReduceDiversity mr(&metric, DiversityProblem::kRemoteEdge, sopts);
    StatusOr<MrResult> result = mr.TryRun(Dataset(input));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_TRUE(result->degraded.has_value());
    EXPECT_EQ(result->degraded->failed_partitions,
              std::vector<size_t>{1u});
    EXPECT_GT(result->degraded->surviving_points, 0u);
    EXPECT_LT(result->degraded->surviving_fraction, 1.0);
    EXPECT_GT(result->degraded->approx_factor, 0.0);
    // Deterministic across backends and repeats under the fixed schedule.
    EXPECT_TRUE(SamePoints(base->solution, result->solution));
    EXPECT_EQ(base->diversity, result->diversity);
    EXPECT_EQ(base->degraded->surviving_points,
              result->degraded->surviving_points);
  }
}

TEST(DistributedTest, DegradationDisabledSurfacesTransportError) {
  EuclideanMetric metric;
  StatusOr<FaultInjector> faults = FaultInjector::Parse(
      "coreset:1:0:conn-drop,coreset:1:1:conn-drop,coreset:1:2:conn-drop");
  ASSERT_TRUE(faults.ok());
  SocketEngine socket(
      SocketOptions("euclidean", DiversityProblem::kRemoteEdge));
  ASSERT_TRUE(socket.Healthy().ok());
  MrOptions opts = BaseOptions();
  opts.faults = &*faults;
  opts.engine = &socket;
  opts.allow_degraded = false;
  MapReduceDiversity mr(&metric, DiversityProblem::kRemoteEdge, opts);
  StatusOr<MrResult> result = mr.TryRun(Dataset(DenseInput()));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
}

// ---------------------------------------------------------------------------
// Unscripted failures: external SIGKILL, liveness heartbeat.

TEST(DistributedTest, ExternallyKilledWorkerIsRespawnedMidRun) {
  EuclideanMetric metric;
  const PointSet input = DenseInput();
  MrOptions opts = BaseOptions();
  MapReduceDiversity clean(&metric, DiversityProblem::kRemoteEdge, opts);
  StatusOr<MrResult> base = clean.TryRun(Dataset(input));
  ASSERT_TRUE(base.ok());

  // One worker, killed from outside between runs: the first RPC of the next
  // run hits a dead process (EOF -> kAborted), the executor retries, and
  // the retry draws the respawned worker.
  SocketEngineOptions so =
      SocketOptions("euclidean", DiversityProblem::kRemoteEdge);
  so.num_workers = 1;
  SocketEngine socket(so);
  ASSERT_TRUE(socket.Healthy().ok());
  const pid_t victim = socket.WorkerPidForTest(0);
  ASSERT_GT(victim, 0);
  ASSERT_EQ(::kill(victim, SIGKILL), 0);

  MrOptions sopts = opts;
  sopts.engine = &socket;
  MapReduceDiversity mr(&metric, DiversityProblem::kRemoteEdge, sopts);
  StatusOr<MrResult> result = mr.TryRun(Dataset(input));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(SamePoints(base->solution, result->solution));
  EXPECT_GE(result->task_retries, 1u);
  EXPECT_GE(socket.stats().respawns, 1u);
  EXPECT_NE(socket.WorkerPidForTest(0), victim);
}

TEST(DistributedTest, HeartbeatDetectsDeadWorkerWhileIdle) {
  SocketEngineOptions so =
      SocketOptions("euclidean", DiversityProblem::kRemoteEdge);
  so.num_workers = 1;
  so.heartbeat_ms = 40;
  SocketEngine socket(so);
  ASSERT_TRUE(socket.Healthy().ok());
  const pid_t victim = socket.WorkerPidForTest(0);
  ASSERT_GT(victim, 0);
  ASSERT_EQ(::kill(victim, SIGKILL), 0);
  // No RPC traffic at all: only the liveness probe can notice the death.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (socket.stats().heartbeat_failures == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(socket.stats().heartbeat_failures, 1u);
  EXPECT_GE(socket.stats().respawns, 1u);

  // The respawned worker serves fault-free traffic bit-identically.
  EuclideanMetric metric;
  const PointSet input = DenseInput();
  MrOptions opts = BaseOptions();
  MapReduceDiversity clean(&metric, DiversityProblem::kRemoteEdge, opts);
  StatusOr<MrResult> base = clean.TryRun(Dataset(input));
  ASSERT_TRUE(base.ok());
  opts.engine = &socket;
  MapReduceDiversity mr(&metric, DiversityProblem::kRemoteEdge, opts);
  StatusOr<MrResult> result = mr.TryRun(Dataset(input));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(SamePoints(base->solution, result->solution));
}

// ---------------------------------------------------------------------------
// Write deadline: a stalled reader must fail the attempt in bounded time,
// not hang the driver in a blocking send() forever.

TEST(DistributedTest, StalledReaderFailsShipWithDeadlineNotHang) {
  // A partition far larger than the AF_UNIX socket buffer (~208KB default):
  // with the worker's read loop stalled, the driver's chunked write fills
  // the pipe and must surface kDeadlineExceeded within the deadline budget,
  // where the old blocking SendAll sat in send() until the stall ended.
  const PointSet big = GenerateGaussianBlobs(30000, 8, 3, 0.05, 17);
  SocketEngineOptions so =
      SocketOptions("euclidean", DiversityProblem::kRemoteEdge);
  so.num_workers = 1;
  so.rpc_deadline_ms = 300;
  so.worker_cache_bytes = 0;  // force the full ship every time
  SocketEngine socket(so);
  ASSERT_TRUE(socket.Healthy().ok());

  TaskEnvelope env;
  env.round = "coreset";
  env.fault = FaultKind::kReadStall;  // worker sleeps without reading
  const auto start = std::chrono::steady_clock::now();
  StatusOr<PointSet> result = socket.Coreset(env, big, CoresetSpec{8, 0, false});
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded)
      << result.status().ToString();
  // Bounded: deadline plus generous respawn/teardown slack, nowhere near
  // the multi-second injected stall.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            5000);

  // The respawned worker serves the retry; a fault-free call completes.
  TaskEnvelope clean_env;
  clean_env.round = "coreset";
  StatusOr<PointSet> retry =
      socket.Coreset(clean_env, big, CoresetSpec{8, 0, false});
  EXPECT_TRUE(retry.ok()) << retry.status().ToString();
}

TEST(DistributedTest, ReadStallFaultRecoversThroughRetryBitIdentically) {
  EuclideanMetric metric;
  const PointSet input = DenseInput();
  MrOptions opts = BaseOptions();
  MapReduceDiversity clean(&metric, DiversityProblem::kRemoteEdge, opts);
  StatusOr<MrResult> base = clean.TryRun(Dataset(input));
  ASSERT_TRUE(base.ok());

  StatusOr<FaultInjector> faults =
      FaultInjector::Parse("coreset:1:0:read-stall");
  ASSERT_TRUE(faults.ok());
  SocketEngineOptions so =
      SocketOptions("euclidean", DiversityProblem::kRemoteEdge);
  so.rpc_deadline_ms = 300;
  SocketEngine socket(so);
  ASSERT_TRUE(socket.Healthy().ok());
  MrOptions faulty = opts;
  faulty.faults = &*faults;
  faulty.engine = &socket;
  MapReduceDiversity mr(&metric, DiversityProblem::kRemoteEdge, faulty);
  StatusOr<MrResult> result = mr.TryRun(Dataset(input));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(SamePoints(base->solution, result->solution));
  EXPECT_EQ(base->diversity, result->diversity);
  EXPECT_GE(result->task_retries, 1u);
  EXPECT_GE(socket.stats().rpc_errors, 1u);
}

// ---------------------------------------------------------------------------
// Worker-side partition cache, end to end over real sockets.

TEST(DistributedTest, RepeatedSolveHitsWorkerCacheBitIdentically) {
  EuclideanMetric metric;
  const PointSet input = DenseInput();
  MrOptions opts = BaseOptions();
  MapReduceDiversity loopback_mr(&metric, DiversityProblem::kRemoteEdge, opts);
  StatusOr<MrResult> base = loopback_mr.TryRun(Dataset(input));
  ASSERT_TRUE(base.ok());

  // One worker makes routing deterministic: every warm-run partition is
  // asked of the worker that cached it in the cold run.
  SocketEngineOptions so =
      SocketOptions("euclidean", DiversityProblem::kRemoteEdge);
  so.num_workers = 1;
  SocketEngine socket(so);
  ASSERT_TRUE(socket.Healthy().ok());
  ASSERT_TRUE(socket.WantsPartitionCacheKeys());
  opts.engine = &socket;
  MapReduceDiversity mr(&metric, DiversityProblem::kRemoteEdge, opts);

  StatusOr<MrResult> cold = mr.TryRun(Dataset(input));
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  const size_t cold_bytes = socket.stats().request_bytes_sent;

  StatusOr<MrResult> warm = mr.TryRun(Dataset(input));
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();

  // The cached solve is bit-identical to both the cold solve and loopback.
  EXPECT_TRUE(SamePoints(base->solution, warm->solution));
  EXPECT_TRUE(SamePoints(cold->solution, warm->solution));
  EXPECT_EQ(base->diversity, warm->diversity);
  // The second run's partition ships were served by reference.
  EXPECT_GE(socket.stats().cache_hits, opts.num_partitions);
  // A by-ref stub is tiny: the warm run must add far less request volume
  // than the cold run's full partition ships.
  const size_t warm_bytes = socket.stats().request_bytes_sent - cold_bytes;
  EXPECT_LT(warm_bytes, cold_bytes / 2);
}

TEST(DistributedTest, CacheEvictFaultFallsBackToFullReship) {
  EuclideanMetric metric;
  const PointSet input = DenseInput();
  MrOptions opts = BaseOptions();
  MapReduceDiversity loopback_mr(&metric, DiversityProblem::kRemoteClique,
                                 opts);
  StatusOr<MrResult> base = loopback_mr.TryRunGeneralized(Dataset(input));
  ASSERT_TRUE(base.ok());

  // One worker so the gen-coreset round (round 1) warms the same cache the
  // instantiate round (round 3) reads; the injected evict then forces the
  // by-ref attempt to miss and re-ship — a success-path fault.
  StatusOr<FaultInjector> faults =
      FaultInjector::Parse("instantiate:1:0:cache-evict");
  ASSERT_TRUE(faults.ok());
  SocketEngineOptions so =
      SocketOptions("euclidean", DiversityProblem::kRemoteClique);
  so.num_workers = 1;
  SocketEngine socket(so);
  ASSERT_TRUE(socket.Healthy().ok());
  MrOptions sopts = opts;
  sopts.faults = &*faults;
  sopts.engine = &socket;
  MapReduceDiversity mr(&metric, DiversityProblem::kRemoteClique, sopts);
  StatusOr<MrResult> result = mr.TryRunGeneralized(Dataset(input));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(SamePoints(base->solution, result->solution));
  EXPECT_EQ(base->diversity, result->diversity);
  // The evicted by-ref attempt came back as a miss and was transparently
  // re-shipped: no retry, no respawn, just one recorded miss.
  EXPECT_GE(socket.stats().cache_misses, 1u);
  EXPECT_EQ(socket.stats().respawns, 0u);
  EXPECT_GE(socket.stats().cache_hits, 1u);  // the non-faulted partitions
}

// ---------------------------------------------------------------------------
// Engine hygiene.

TEST(DistributedTest, MissingWorkerBinaryReportsUnhealthy) {
  SocketEngineOptions so =
      SocketOptions("euclidean", DiversityProblem::kRemoteEdge);
  so.num_workers = 1;
  so.worker_binary = "/nonexistent/diverse_worker";
  so.max_respawn_attempts = 0;
  SocketEngine socket(so);
  EXPECT_FALSE(socket.Healthy().ok());
  EXPECT_EQ(socket.Healthy().code(), StatusCode::kUnavailable);
}

TEST(DistributedTest, UnknownMetricNameSurfacesWorkerError) {
  // The engine ships metric names, not metric objects; a non-builtin name
  // must come back as a diagnosable worker-side error, not silence.
  SocketEngineOptions so =
      SocketOptions("mystery-metric", DiversityProblem::kRemoteEdge);
  so.num_workers = 1;
  SocketEngine socket(so);
  ASSERT_TRUE(socket.Healthy().ok());
  TaskEnvelope env;
  env.round = "coreset";
  StatusOr<PointSet> result =
      socket.Coreset(env, DenseInput(), CoresetSpec{4, 0, false});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("mystery-metric"),
            std::string::npos);
}

TEST(DistributedTest, MixedDimPointSetIsAnErrorNotAnAbort) {
  // Both engines lay a PointSet input out as rows first; points that
  // disagree on dim come back as the loaders' error on either engine,
  // without aborting the caller or reaching a worker.
  EuclideanMetric metric;
  LoopbackEngine loopback(&metric, DiversityProblem::kRemoteEdge);
  SocketEngineOptions so =
      SocketOptions("euclidean", DiversityProblem::kRemoteEdge);
  so.num_workers = 1;
  SocketEngine socket(so);
  ASSERT_TRUE(socket.Healthy().ok());
  PointSet mixed = DenseInput();
  mixed.push_back(Point::Dense(std::vector<float>(mixed[0].dim() + 1, 1.0f)));
  for (CommunicationEngine* engine :
       {static_cast<CommunicationEngine*>(&loopback),
        static_cast<CommunicationEngine*>(&socket)}) {
    TaskEnvelope env;
    env.round = "coreset";
    EXPECT_EQ(engine->Coreset(env, mixed, CoresetSpec{4, 0, false})
                  .status()
                  .code(),
              StatusCode::kInvalidArgument)
        << engine->BackendName();
    env.round = "solve";
    EXPECT_EQ(engine->Solve(env, mixed, 3).status().code(),
              StatusCode::kInvalidArgument)
        << engine->BackendName();
  }
  EXPECT_EQ(socket.stats().rpc_errors, 0u);
  EXPECT_EQ(socket.stats().request_bytes_sent, 0u);
}

TEST(DistributedTest, BackendNamesAreDistinct) {
  EuclideanMetric metric;
  LoopbackEngine loopback(&metric, DiversityProblem::kRemoteEdge);
  SocketEngineOptions so =
      SocketOptions("euclidean", DiversityProblem::kRemoteEdge);
  so.num_workers = 1;
  SocketEngine socket(so);
  EXPECT_EQ(loopback.BackendName(), "loopback");
  EXPECT_EQ(socket.BackendName(), "socket");
}

}  // namespace
}  // namespace diverse
