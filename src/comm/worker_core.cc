#include "comm/worker_core.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstddef>
#include <cstring>
#include <memory>
#include <thread>
#include <utility>

#include "comm/comm.h"
#include "comm/frame.h"
#include "comm/net_io.h"
#include "core/metric.h"

namespace diverse {

namespace {

// The task bodies read the partition through `part`, which aliases either
// request.part (inline ship) or a cache-resident Dataset (by-ref request)
// — the one code path is what keeps cached and shipped results
// bit-identical.
WireReply ExecuteDecodedTask(const WireRequest& req, const Dataset& part) {
  WireReply reply;
  reply.type = req.type;
  std::unique_ptr<Metric> metric = MakeMetricByName(req.metric);
  if (metric == nullptr) {
    reply.status = InvalidArgumentError(
        "unknown metric '" + req.metric +
        "' (the socket transport supports only the built-in metrics)");
    return reply;
  }
  TaskEnvelope env;
  env.round = req.round;
  env.task = static_cast<size_t>(req.task);
  env.attempt = static_cast<size_t>(req.attempt);
  switch (req.type) {
    case WireTaskType::kCoreset: {
      CoresetSpec spec;
      spec.k_prime = static_cast<size_t>(req.k_prime);
      spec.delegates = static_cast<size_t>(req.delegates);
      spec.extended = req.extended;
      reply.points = ComputeCoreset(part, *metric, spec);
      break;
    }
    case WireTaskType::kGenCoreset: {
      GenCoresetResult result =
          ComputeGenCoreset(part, *metric, static_cast<size_t>(req.k),
                            static_cast<size_t>(req.k_prime));
      reply.gen = std::move(result.gen);
      reply.range = result.range;
      break;
    }
    case WireTaskType::kSolve: {
      reply.points = ComputeSolve(part, req.problem, *metric,
                                  static_cast<size_t>(req.k));
      break;
    }
    case WireTaskType::kGenSolve: {
      reply.gen = ComputeGenSolve(req.gen, req.problem, *metric,
                                  static_cast<size_t>(req.k));
      break;
    }
    case WireTaskType::kInstantiate: {
      StatusOr<PointSet> inst =
          ComputeInstantiate(env, req.gen, part, *metric, req.range);
      if (!inst.ok()) {
        reply.status = inst.status();
      } else {
        reply.points = std::move(*inst);
      }
      break;
    }
  }
  return reply;
}

}  // namespace

std::shared_ptr<const Dataset> WorkerPartitionCache::Lookup(
    uint64_t fingerprint) {
  auto it = index_.find(fingerprint);
  if (it == index_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second);  // touch: move to MRU
  return it->second->part;
}

std::shared_ptr<const Dataset> WorkerPartitionCache::Insert(
    uint64_t fingerprint, Dataset part) {
  auto it = index_.find(fingerprint);
  if (it != index_.end()) {
    // Same fingerprint = same content; keep the resident copy warm.
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->part;
  }
  const size_t bytes = part.MemoryBytes();
  auto shared = std::make_shared<const Dataset>(std::move(part));
  if (bytes > capacity_) return shared;  // would evict everything: bypass
  while (size_bytes_ + bytes > capacity_ && !lru_.empty()) {
    index_.erase(lru_.back().fingerprint);
    size_bytes_ -= lru_.back().bytes;
    lru_.pop_back();
    ++evictions_;
  }
  lru_.push_front(Entry{fingerprint, shared, bytes});
  index_[fingerprint] = lru_.begin();
  size_bytes_ += bytes;
  return shared;
}

bool WorkerPartitionCache::Evict(uint64_t fingerprint) {
  auto it = index_.find(fingerprint);
  if (it == index_.end()) return false;
  size_bytes_ -= it->second->bytes;
  lru_.erase(it->second);
  index_.erase(it);
  ++evictions_;
  return true;
}

WireReply ExecuteWireRequest(WireRequest request,
                             WorkerPartitionCache* cache) {
  if (cache != nullptr && request.evict_fingerprint != 0) {
    (void)cache->Evict(request.evict_fingerprint);
  }
  if (request.points_by_ref) {
    std::shared_ptr<const Dataset> cached =
        cache != nullptr ? cache->Lookup(request.points_fingerprint)
                         : nullptr;
    if (cached == nullptr) {
      // No compute on a miss: the driver re-ships and retries, and an
      // expensive task must not run twice for one logical attempt.
      WireReply reply;
      reply.type = request.type;
      reply.cache_miss = true;
      reply.status = NotFoundError(
          "partition " + std::to_string(request.points_fingerprint) +
          " not in the worker cache");
      return reply;
    }
    return ExecuteDecodedTask(request, *cached);
  }
  if (request.cache_insert && request.points_fingerprint != 0) {
    const uint64_t actual = request.decoded_fingerprint;
    if (actual != request.points_fingerprint) {
      WireReply reply;
      reply.type = request.type;
      reply.status = DataLossError(
          "partition fingerprint mismatch: request claims " +
          std::to_string(request.points_fingerprint) +
          " but the shipped points hash to " + std::to_string(actual));
      return reply;
    }
    if (cache != nullptr) {
      std::shared_ptr<const Dataset> stored =
          cache->Insert(request.points_fingerprint, std::move(request.part));
      return ExecuteDecodedTask(request, *stored);
    }
  }
  return ExecuteDecodedTask(request, request.part);
}

std::string ExecuteWireTask(std::string_view request_payload,
                            WorkerPartitionCache* cache) {
  StatusOr<WireRequest> req = TryDecodeWireRequest(request_payload);
  WireReply reply;
  if (!req.ok()) {
    reply.status = req.status();
  } else {
    reply = ExecuteWireRequest(std::move(*req), cache);
  }
  return EncodeWireReply(reply);
}

namespace {

// Completes the streamed or monolithic decode, honors the injected reply
// delay (so the driver's RPC deadline races the sleep exactly as a stuck
// worker would behave), and executes.
std::string RunRequest(StatusOr<WireRequest> req, WorkerPartitionCache* cache) {
  WireReply reply;
  if (!req.ok()) {
    reply.status = req.status();
  } else {
    if (req->delay_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(req->delay_ms));
    }
    reply = ExecuteWireRequest(std::move(*req), cache);
  }
  return EncodeWireReply(reply);
}

}  // namespace

int RunWorkerLoop(int fd, const WorkerLoopOptions& options) {
  if (!SetNonBlocking(fd)) return 1;
  WorkerPartitionCache cache(options.cache_bytes);
  WorkerPartitionCache* cache_ptr =
      options.cache_bytes > 0 ? &cache : nullptr;
  // Live only between a kRequestChunk and its kRequestLast.
  std::unique_ptr<StreamingRequestDecoder> streaming;
  std::string buf;
  char chunk[64 * 1024];
  for (;;) {
    // Drain complete frames already buffered before reading more.
    for (;;) {
      Frame frame;
      size_t consumed = 0;
      Status decode = TryDecodeFrame(buf, &frame, &consumed);
      if (!decode.ok()) return 1;  // malformed stream: give up loudly
      if (consumed == 0) break;    // need more bytes
      buf.erase(0, consumed);
      std::string out;
      switch (frame.type) {
        case FrameType::kShutdown:
          return 0;
        case FrameType::kHeartbeat:
          AppendFrame(FrameType::kHeartbeatAck, "", &out);
          break;
        case FrameType::kStall: {
          // Deterministic stalled reader: sleep without touching the
          // socket, so the driver's in-flight ship backs up against the
          // kernel buffer and its write deadline — not this loop —
          // decides what happens.
          uint64_t ms = 0;
          if (frame.payload.size() == sizeof(ms)) {
            std::memcpy(&ms, frame.payload.data(), sizeof(ms));
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(ms));
          break;
        }
        case FrameType::kRequestChunk: {
          if (streaming == nullptr) {
            streaming = std::make_unique<StreamingRequestDecoder>();
          }
          // A structural error is sticky; Finish() reports it when the
          // last slice arrives, as an error reply rather than a dead
          // stream (the frame CRC already vouches for transport
          // integrity).
          (void)streaming->Feed(frame.payload);
          break;
        }
        case FrameType::kRequestLast: {
          if (streaming == nullptr) {
            streaming = std::make_unique<StreamingRequestDecoder>();
          }
          (void)streaming->Feed(frame.payload);
          StatusOr<WireRequest> req = streaming->Finish();
          streaming.reset();
          AppendFrame(FrameType::kReply,
                      RunRequest(std::move(req), cache_ptr), &out);
          break;
        }
        case FrameType::kRequest: {
          AppendFrame(FrameType::kReply,
                      RunRequest(TryDecodeWireRequest(frame.payload),
                                 cache_ptr),
                      &out);
          break;
        }
        default:
          // kReply / kHeartbeatAck are driver-bound; receiving one here
          // means the peer is confused. Drop it.
          break;
      }
      if (!out.empty() &&
          !SendAllWithDeadline(fd, out, options.write_deadline_ms).ok()) {
        // The driver stopped draining or closed; exiting surfaces EOF on
        // its side, which it handles as a crashed worker (retry path).
        return 1;
      }
    }
    ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        struct pollfd pfd;
        pfd.fd = fd;
        pfd.events = POLLIN;
        pfd.revents = 0;
        if (::poll(&pfd, 1, -1) < 0 && errno != EINTR) return 1;
        continue;
      }
      return 1;
    }
    if (n == 0) return 0;  // driver closed: clean exit
    buf.append(chunk, static_cast<size_t>(n));
  }
}

int RunWorkerLoop(int fd) { return RunWorkerLoop(fd, WorkerLoopOptions{}); }

}  // namespace diverse
