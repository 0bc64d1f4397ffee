// The multi-process backend of the MapReduce drivers: a pool of persistent
// worker processes (fork/exec of diverse_worker) connected by Unix-domain
// stream sockets, one RPC per engine call over the checksummed frame
// protocol of comm/frame.h.
//
// Robustness model:
//   * Liveness — a background heartbeat thread pings idle workers every
//     `heartbeat_ms`; a worker that misses its ack is killed and respawned
//     before a task is ever routed to it.
//   * Deadlines — every RPC read polls with a `rpc_deadline_ms` budget; a
//     worker that does not answer in time fails the attempt with
//     kDeadlineExceeded and is killed + respawned (a late reply would
//     desynchronize the stream).
//   * Recovery — spawn/respawn retries with bounded exponential backoff
//     (`respawn_backoff_ms` * 2^attempt, up to `max_respawn_attempts`).
//     A dead worker fails only the in-flight attempt; the executor above
//     retries it, and the respawned worker serves the retry.
//   * Fault injection — transport faults forwarded in the TaskEnvelope are
//     inflicted for real: kWorkerCrash SIGKILLs the serving worker after
//     the request is written, kConnDrop closes the connection mid-RPC,
//     kFrameCorrupt flips a reply byte so the checksum rejects it,
//     kReplyDelay asks the worker to sleep past the RPC deadline.
//
// Determinism: fault-free calls return bit-identical results to
// LoopbackEngine (same Compute* bodies, float bytes round-tripped raw),
// so the driver's output is independent of the transport. Like loopback,
// the PointSet methods lay their input out as a Dataset before shipping
// it, and points that disagree on dim are a kInvalidArgument error.

#ifndef DIVERSE_COMM_SOCKET_ENGINE_H_
#define DIVERSE_COMM_SOCKET_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "comm/comm.h"
#include "comm/serialize.h"
#include "util/subprocess.h"
#include "util/thread_annotations.h"

namespace diverse {

/// Configuration of a SocketEngine.
struct SocketEngineOptions {
  /// Worker processes to keep alive.
  size_t num_workers = 4;
  /// Path of the worker binary; empty = "<dir of this executable>/diverse_worker".
  std::string worker_binary;
  /// Wire metric name (core/metric.h Name()); must be a built-in metric.
  std::string metric = "euclidean";
  /// Problem solved by Solve/GenSolve tasks.
  DiversityProblem problem = DiversityProblem::kRemoteEdge;
  /// Idle-worker liveness probe period; 0 disables the heartbeat thread.
  uint64_t heartbeat_ms = 0;
  /// Per-RPC reply deadline; 0 means wait forever (tests use small values).
  uint64_t rpc_deadline_ms = 30000;
  /// Respawn attempts per incident before giving up (kUnavailable).
  size_t max_respawn_attempts = 3;
  /// Base of the exponential respawn backoff (ms): backoff * 2^attempt,
  /// shift-clamped and capped at kMaxRespawnBackoffMs (comm/net_io.h).
  uint64_t respawn_backoff_ms = 10;
  /// Request payloads above this size ship as a sequence of bounded
  /// kRequestChunk frames (final slice kRequestLast) instead of one
  /// monolithic kRequest frame, so the worker's streaming decoder overlaps
  /// deserialization with the chunks still in flight. 0 disables chunking.
  size_t chunk_bytes = 256 * 1024;
  /// Per-worker partition-cache budget (bytes), passed to the worker as
  /// --cache-bytes. When > 0 the engine fingerprints cacheable partitions,
  /// re-sends only a by-ref stub on repeat ships of the same content, and
  /// falls back to a full re-ship on a worker-side miss. 0 disables
  /// caching entirely (no fingerprinting, no cache frames).
  size_t worker_cache_bytes = size_t{64} << 20;
};

/// Transport health counters (monotone; read whenever).
struct SocketEngineStats {
  size_t workers_spawned = 0;
  /// Spawns beyond the initial pool — crash/drop/timeout recoveries plus
  /// heartbeat-detected deaths.
  size_t respawns = 0;
  size_t heartbeats_sent = 0;
  size_t heartbeat_failures = 0;
  size_t rpc_errors = 0;
  /// By-ref requests the worker served from its partition cache.
  size_t cache_hits = 0;
  /// By-ref requests that came back kNotFound + cache_miss (evicted or
  /// respawned worker); each was transparently retried as a full ship.
  size_t cache_misses = 0;
  /// kRequestChunk/kRequestLast frames sent (monolithic requests count 0).
  size_t chunks_sent = 0;
  /// Request bytes written to workers, frames included — the ship-volume
  /// half of the distributed bench's ship-vs-compute split.
  size_t request_bytes_sent = 0;
  /// Wall-clock spent fingerprinting, encoding and writing requests.
  double ship_seconds = 0.0;
  /// Wall-clock spent awaiting and reading reply frames.
  double reply_seconds = 0.0;
};

/// CommunicationEngine over forked worker processes. Thread-safe: engine
/// calls from concurrent reducer attempts check workers out of a free list
/// (blocking while all are busy) and return them after the RPC.
class SocketEngine final : public CommunicationEngine {
 public:
  /// Spawns the worker pool; CHECK-fails on empty/invalid options. Call
  /// Healthy() to learn whether every worker came up.
  explicit SocketEngine(const SocketEngineOptions& options);
  ~SocketEngine() override;

  SocketEngine(const SocketEngine&) = delete;
  SocketEngine& operator=(const SocketEngine&) = delete;

  std::string BackendName() const override { return "socket"; }

  /// True when the worker partition cache is enabled.
  bool WantsPartitionCacheKeys() const override {
    return options_.worker_cache_bytes > 0;
  }

  StatusOr<PointSet> Coreset(const TaskEnvelope& env, const PointSet& part,
                             const CoresetSpec& spec) override;
  StatusOr<GenCoresetResult> GenCoreset(const TaskEnvelope& env,
                                        const PointSet& part, size_t k,
                                        size_t k_prime) override;
  StatusOr<PointSet> Solve(const TaskEnvelope& env, const PointSet& aggregate,
                           size_t k) override;
  StatusOr<GeneralizedCoreset> GenSolve(const TaskEnvelope& env,
                                        const GeneralizedCoreset& merged,
                                        size_t k) override;
  StatusOr<PointSet> Instantiate(const TaskEnvelope& env,
                                 const GeneralizedCoreset& selected,
                                 const PointSet& part, double range) override;
  StatusOr<PointSet> CoresetRows(const TaskEnvelope& env, const Dataset& part,
                                 const CoresetSpec& spec) override;
  StatusOr<GenCoresetResult> GenCoresetRows(const TaskEnvelope& env,
                                            const Dataset& part, size_t k,
                                            size_t k_prime) override;
  StatusOr<PointSet> InstantiateRows(const TaskEnvelope& env,
                                     const GeneralizedCoreset& selected,
                                     const Dataset& part,
                                     double range) override;

  /// OK iff the initial pool fully spawned.
  Status Healthy() const;

  /// Snapshot of the health counters.
  SocketEngineStats stats() const;

  /// PID of the worker at `slot` (tests SIGKILL it externally to exercise
  /// unscripted crash recovery); -1 when the slot is dead.
  pid_t WorkerPidForTest(size_t slot) const;

 private:
  struct Worker {
    Subprocess proc;
    std::string inbuf;   // bytes read but not yet decoded
    bool alive = false;
    size_t slot = 0;
    /// Fingerprints this worker's partition cache is believed to hold.
    /// Advisory only: a stale entry (LRU-evicted worker-side) costs one
    /// by-ref round-trip and a transparent full re-ship, never a wrong
    /// answer. Cleared whenever the worker process is replaced.
    std::unordered_set<uint64_t> cached;
  };

  /// Per-call transport tallies, merged into stats_ under mu_ at the end
  /// of Call (the hot path never takes the lock mid-RPC).
  struct CallTally {
    size_t cache_hits = 0;
    size_t cache_misses = 0;
    size_t chunks_sent = 0;
    size_t request_bytes_sent = 0;
    double ship_seconds = 0.0;
    double reply_seconds = 0.0;
  };

  // Builds the common request envelope for `env`.
  WireRequest MakeRequest(WireTaskType type, const TaskEnvelope& env) const;

  // Full RPC: check out a worker, apply transport faults, ship the request
  // (by-ref when the worker caches `part`, chunked when large), await the
  // reply frame under the deadline, return the worker. `part` is the
  // partition serialized as the request's part section (nullptr: req.part
  // — possibly empty — ships inline); `cacheable` opts the partition into
  // worker-side caching.
  StatusOr<WireReply> Call(const TaskEnvelope& env, WireRequest* req,
                           const Dataset* part, bool cacheable);

  // One send/receive exchange on a checked-out worker: frames and writes
  // `payload` (chunking large payloads), then awaits the reply. On failure
  // the worker is dead (or untrusted) and must be respawned by the caller.
  Status Exchange(Worker* w, const TaskEnvelope& env,
                  const std::string& payload, WireReply* reply,
                  CallTally* tally);

  // Heartbeat round-trip on a checked-out worker; false = dead/mute.
  bool PingWorker(Worker* w, uint64_t ack_deadline_ms);

  // Spawns (or respawns) the worker at `slot` with exponential backoff,
  // handshaking each candidate before trusting it.
  Status SpawnSlot(size_t slot, bool is_respawn) DIVERSE_EXCLUDES(mu_);

  // Free-list checkout/checkin.
  Worker* AcquireWorker() DIVERSE_EXCLUDES(mu_);
  void ReleaseWorker(Worker* w, bool healthy) DIVERSE_EXCLUDES(mu_);

  void HeartbeatLoop();

  const SocketEngineOptions options_;
  std::string binary_;

  mutable Mutex mu_;
  CondVar cv_;
  // Sized once in the constructor, never resized (stable pointers). A
  // Worker's fields are owned exclusively by whichever thread holds its
  // slot out of `free_`; mu_ guards only the containers and counters.
  std::vector<Worker> workers_;
  std::vector<size_t> free_ DIVERSE_GUARDED_BY(mu_);
  bool shutdown_ DIVERSE_GUARDED_BY(mu_) = false;
  SocketEngineStats stats_ DIVERSE_GUARDED_BY(mu_);
  Status init_error_ DIVERSE_GUARDED_BY(mu_);

  std::thread heartbeat_thread_;
};

}  // namespace diverse

#endif  // DIVERSE_COMM_SOCKET_ENGINE_H_
