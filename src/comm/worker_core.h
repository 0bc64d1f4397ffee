// The worker-side execution core of the distributed runtime: decode one
// wire request, run the matching Compute* task body (comm/comm.h) on a
// metric resolved by name, and encode the reply. Shared by the worker
// binary (src/tools/diverse_worker.cc) and tests that exercise the wire
// path without forking — the single definition is what keeps remote
// results bit-identical to loopback.
//
// This layer also owns the worker-side partition cache: the driver tags a
// shipped partition with its content fingerprint (cache_insert), later
// requests name the fingerprint instead of re-shipping the bytes
// (points_by_ref), and a miss comes back as kNotFound + cache_miss so the
// driver can fall back to a full ship. A partition is decoded straight
// into a Dataset and cached as one, so cached and shipped partitions hold
// identical rows and task results are bit-identical either way — the
// invariant tests/comm_cache_test.cc pins.

#ifndef DIVERSE_COMM_WORKER_CORE_H_
#define DIVERSE_COMM_WORKER_CORE_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>

#include "comm/serialize.h"

namespace diverse {

/// A bytes-bounded LRU of decoded partitions, keyed by their content
/// fingerprint (FingerprintRows). Entries are shared_ptr so a task can
/// keep computing on a partition that a concurrent insert evicts. The
/// worker process is single-threaded, so the cache is not synchronized.
class WorkerPartitionCache {
 public:
  /// `capacity_bytes` bounds the sum of Dataset::MemoryBytes over resident
  /// entries; 0 disables caching (every Lookup misses, Insert stores
  /// nothing).
  explicit WorkerPartitionCache(size_t capacity_bytes)
      : capacity_(capacity_bytes) {}

  /// Returns the cached partition and marks it most-recently-used, or
  /// nullptr on a miss.
  std::shared_ptr<const Dataset> Lookup(uint64_t fingerprint);

  /// Stores `part` under `fingerprint`, evicting least-recently-used
  /// entries until it fits, and returns the (now shared) partition. A
  /// partition larger than the whole capacity is returned without being
  /// stored; an already-present fingerprint is touched and its resident
  /// copy returned (same fingerprint = same content).
  std::shared_ptr<const Dataset> Insert(uint64_t fingerprint, Dataset part);

  /// Drops the entry if present (the cache-evict fault). Returns whether
  /// anything was evicted.
  bool Evict(uint64_t fingerprint);

  size_t entries() const { return lru_.size(); }
  size_t size_bytes() const { return size_bytes_; }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t evictions() const { return evictions_; }

 private:
  struct Entry {
    uint64_t fingerprint = 0;
    std::shared_ptr<const Dataset> part;
    size_t bytes = 0;
  };

  size_t capacity_;
  size_t size_bytes_ = 0;
  std::list<Entry> lru_;  // most-recently-used at the front
  std::unordered_map<uint64_t, std::list<Entry>::iterator> index_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
};

/// Executes one decoded wire request (TryDecodeWireRequest or
/// StreamingRequestDecoder output) against `cache` (nullable = no caching)
/// and returns the reply. Handles the cache protocol before any compute:
/// evict_fingerprint is applied first; a points_by_ref request that misses
/// returns kNotFound with cache_miss set (and skips the task body
/// entirely); a cache_insert ship is verified by comparing its claimed
/// fingerprint with the decoder's decoded_fingerprint (kDataLoss
/// "partition fingerprint mismatch" on corruption) and then inserted.
/// `delay_ms` is NOT honored here (sleeping is the worker loop's job, so
/// tests can run this synchronously). Takes the request by value because
/// its partition may be moved into the cache.
WireReply ExecuteWireRequest(WireRequest request, WorkerPartitionCache* cache);

/// Executes the wire task in `request_payload` and returns the encoded
/// reply payload. Never throws and never aborts on malformed input: decode
/// failures, unknown metric names and task errors all come back as an
/// encoded WireReply carrying the error Status. `cache` as above.
std::string ExecuteWireTask(std::string_view request_payload,
                            WorkerPartitionCache* cache = nullptr);

/// Knobs of the worker main loop, set by driver-passed command-line flags
/// (src/tools/diverse_worker.cc).
struct WorkerLoopOptions {
  /// Partition-cache budget in bytes; 0 disables the cache (by-ref
  /// requests then always miss and the driver falls back to full ships).
  size_t cache_bytes = 0;
  /// Budget for writing one reply back to the driver; 0 = no deadline.
  /// A reply the driver stops draining fails the write instead of hanging
  /// the worker forever, and the loop exits (driver sees EOF -> retry).
  uint64_t write_deadline_ms = 30000;
};

/// The worker process main loop: reads frames from `fd` (switched to
/// non-blocking, poll-driven), answers kHeartbeat with kHeartbeatAck,
/// executes kRequest payloads (honoring `delay_ms`), feeds kRequestChunk
/// slices to a streaming decoder so deserialization overlaps the chunks
/// still in flight (kRequestLast completes and executes), sleeps without
/// reading on kStall (the deterministic stalled-reader fixture), and
/// returns 0 on kShutdown or EOF, 1 on a malformed stream or write
/// failure. Runs until the driver closes the connection.
int RunWorkerLoop(int fd, const WorkerLoopOptions& options);
int RunWorkerLoop(int fd);

}  // namespace diverse

#endif  // DIVERSE_COMM_WORKER_CORE_H_
