#include "comm/socket_engine.h"

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "comm/frame.h"
#include "comm/net_io.h"

namespace diverse {

namespace {

// Deadline for the spawn-time handshake (exec + runtime startup + one
// heartbeat round-trip). Generous: a handshake miss is a dead worker.
constexpr uint64_t kSpawnHandshakeMs = 5000;

std::string EnvelopeSuffix(const TaskEnvelope& env) {
  return " (round '" + env.round + "', task " + std::to_string(env.task) +
         ", attempt " + std::to_string(env.attempt) + ")";
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

SocketEngine::SocketEngine(const SocketEngineOptions& options)
    : options_(options) {
  DIVERSE_CHECK(options_.num_workers > 0);
  binary_ = options_.worker_binary.empty()
                ? ExecutableDir() + "/diverse_worker"
                : options_.worker_binary;
  workers_.resize(options_.num_workers);
  for (size_t i = 0; i < workers_.size(); ++i) workers_[i].slot = i;
  for (size_t i = 0; i < workers_.size(); ++i) {
    const Status spawned = SpawnSlot(i, /*is_respawn=*/false);
    if (!spawned.ok()) {
      MutexLock lock(&mu_);
      if (init_error_.ok()) init_error_ = spawned;
    }
  }
  {
    MutexLock lock(&mu_);
    for (size_t i = 0; i < workers_.size(); ++i) {
      // Dead slots circulate too: the next RPC to draw one retries the
      // respawn, so a transient spawn failure is not permanent.
      free_.push_back(i);
    }
  }
  if (options_.heartbeat_ms > 0) {
    heartbeat_thread_ = std::thread([this] { HeartbeatLoop(); });
  }
}

SocketEngine::~SocketEngine() {
  {
    MutexLock lock(&mu_);
    shutdown_ = true;
    cv_.NotifyAll();
  }
  if (heartbeat_thread_.joinable()) heartbeat_thread_.join();
  // Contract: all engine calls have returned by now (the engine outlives
  // the driver run that uses it). Ask each live worker to exit, then reap;
  // WaitSubprocess SIGKILLs any straggler at its deadline.
  std::string bye;
  AppendFrame(FrameType::kShutdown, "", &bye);
  for (Worker& w : workers_) {
    if (w.alive && w.proc.fd >= 0) {
      (void)SendAllWithDeadline(w.proc.fd, bye, 1000).ok();
    }
  }
  for (Worker& w : workers_) (void)WaitSubprocess(&w.proc, 2000);
}

Status SocketEngine::Healthy() const {
  MutexLock lock(&mu_);
  return init_error_;
}

SocketEngineStats SocketEngine::stats() const {
  MutexLock lock(&mu_);
  return stats_;
}

pid_t SocketEngine::WorkerPidForTest(size_t slot) const {
  MutexLock lock(&mu_);
  if (slot >= workers_.size() || !workers_[slot].alive) return -1;
  return workers_[slot].proc.pid;
}

namespace {

struct FrameReadResult {
  Status status;
  Frame frame;
  std::string raw;
};

FrameReadResult ReadFrameFromSocket(int fd, std::string* inbuf,
                                    uint64_t deadline_ms) {
  FrameReadResult result;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(deadline_ms);
  char chunk[64 * 1024];
  for (;;) {
    Frame frame;
    size_t consumed = 0;
    const Status decode = TryDecodeFrame(*inbuf, &frame, &consumed);
    if (!decode.ok()) {
      // Malformed stream: the connection can never be trusted again (no
      // resync point); the caller kills and respawns.
      result.status = decode;
      return result;
    }
    if (consumed > 0) {
      result.raw = inbuf->substr(0, consumed);
      inbuf->erase(0, consumed);
      result.frame = std::move(frame);
      result.status = OkStatus();
      return result;
    }
    int timeout_ms = -1;
    if (deadline_ms > 0) {
      // PollTimeoutMs rounds a sub-millisecond remainder UP to 1 and
      // returns 0 only when the deadline has truly passed — a truncating
      // cast here would either expire early or (as a negative timeout)
      // block poll forever.
      timeout_ms = PollTimeoutMs(std::chrono::steady_clock::now(), deadline);
      if (timeout_ms == 0) {
        result.status = DeadlineExceededError(
            "RPC deadline (" + std::to_string(deadline_ms) +
            " ms) expired awaiting the worker's reply");
        return result;
      }
    }
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = POLLIN;
    pfd.revents = 0;
    const int polled = ::poll(&pfd, 1, timeout_ms);
    if (polled < 0) {
      if (errno == EINTR) continue;
      result.status = UnavailableError(std::string("poll on worker failed: ") +
                                       std::strerror(errno));
      return result;
    }
    if (polled == 0) continue;  // re-check the deadline at loop top
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;
      // The parent fd is non-blocking (write deadlines need it); a poll
      // wakeup that raced the bytes away is just "try again".
      if (errno == EAGAIN || errno == EWOULDBLOCK) continue;
      result.status = UnavailableError(
          std::string("read from worker failed: ") + std::strerror(errno));
      return result;
    }
    if (n == 0) {
      result.status =
          AbortedError("worker process died (connection closed mid-RPC)");
      return result;
    }
    inbuf->append(chunk, static_cast<size_t>(n));
  }
}

}  // namespace

bool SocketEngine::PingWorker(Worker* w, uint64_t ack_deadline_ms) {
  if (w->proc.fd < 0) return false;
  std::string ping;
  AppendFrame(FrameType::kHeartbeat, "", &ping);
  if (!SendAllWithDeadline(w->proc.fd, ping, ack_deadline_ms).ok()) {
    return false;
  }
  FrameReadResult got =
      ReadFrameFromSocket(w->proc.fd, &w->inbuf, ack_deadline_ms);
  return got.status.ok() && got.frame.type == FrameType::kHeartbeatAck;
}

Status SocketEngine::SpawnSlot(size_t slot, bool is_respawn) {
  Status last = UnavailableError("worker spawn not attempted");
  const std::vector<std::string> worker_args = {
      "--cache-bytes=" + std::to_string(options_.worker_cache_bytes),
      "--write-deadline-ms=" + std::to_string(options_.rpc_deadline_ms)};
  for (size_t attempt = 0; attempt < 1 + options_.max_respawn_attempts;
       ++attempt) {
    if (attempt > 0) {
      // Shift-clamped: a hostile max_respawn_attempts cannot push the
      // shift past the width of the type (that would be UB, and 1 << 64
      // "backoffs" were observed as instant hot respawn loops).
      std::this_thread::sleep_for(std::chrono::milliseconds(
          RespawnBackoffMs(options_.respawn_backoff_ms, attempt)));
    }
    StatusOr<Subprocess> proc = SpawnWorker(binary_, worker_args);
    if (!proc.ok()) {
      last = proc.status();
      continue;
    }
    // The write-deadline machinery only binds on a non-blocking fd (a
    // blocking send never returns EAGAIN, so it could hang forever against
    // a stalled reader no matter what deadline we computed).
    if (!SetNonBlocking(proc->fd)) {
      Subprocess doomed = *proc;
      KillSubprocess(&doomed);
      (void)WaitSubprocess(&doomed, 2000);
      last = UnavailableError("could not set the worker socket non-blocking");
      continue;
    }
    // Handshake before trusting the slot: exec failures and protocol
    // mismatches surface here, not as a mystery EOF on the first task.
    Worker probe;
    probe.proc = *proc;
    if (!PingWorker(&probe, kSpawnHandshakeMs)) {
      KillSubprocess(&probe.proc);
      (void)WaitSubprocess(&probe.proc, 2000);
      last = UnavailableError("worker '" + binary_ +
                              "' spawned but failed the startup handshake");
      continue;
    }
    MutexLock lock(&mu_);
    Worker& w = workers_[slot];
    w.proc = probe.proc;
    w.inbuf = std::move(probe.inbuf);
    w.alive = true;
    w.cached.clear();  // a fresh process starts with an empty cache
    ++stats_.workers_spawned;
    if (is_respawn) ++stats_.respawns;
    return OkStatus();
  }
  MutexLock lock(&mu_);
  workers_[slot].alive = false;
  return last;
}

SocketEngine::Worker* SocketEngine::AcquireWorker() {
  MutexLock lock(&mu_);
  while (free_.empty() && !shutdown_) cv_.Wait(mu_);
  if (shutdown_) return nullptr;
  // A dead slot goes out before any live one, so the RPC after a crash
  // respawns it and the pool never quietly runs a worker short; otherwise
  // the most recently released worker.
  auto it = std::find_if(free_.begin(), free_.end(),
                         [this](size_t s) { return !workers_[s].alive; });
  if (it == free_.end()) it = free_.end() - 1;
  const size_t slot = *it;
  free_.erase(it);
  return &workers_[slot];
}

void SocketEngine::ReleaseWorker(Worker* w, bool healthy) {
  if (!healthy) {
    // Kill + reap now (the worker was SIGKILLed or is untrusted; the reap
    // is near-immediate) and leave the slot dead — the next RPC to draw it
    // respawns lazily, so this failing RPC pays no spawn backoff.
    KillSubprocess(&w->proc);
    (void)WaitSubprocess(&w->proc, 2000);
    w->inbuf.clear();
    w->alive = false;
    w->cached.clear();  // the cache died with the process
  }
  MutexLock lock(&mu_);
  free_.push_back(w->slot);
  cv_.NotifyAll();
}

Status SocketEngine::Exchange(Worker* w, const TaskEnvelope& env,
                              const std::string& payload, WireReply* reply,
                              CallTally* tally) {
  if (env.fault == FaultKind::kConnDrop) {
    // Sever the link instead of completing the RPC; the worker sees EOF
    // and exits, the attempt fails as a lost connection.
    if (w->proc.fd >= 0) {
      ::close(w->proc.fd);
      w->proc.fd = -1;
    }
    return UnavailableError("injected connection drop severed the worker link" +
                            EnvelopeSuffix(env));
  }
  if (env.fault == FaultKind::kWorkerCrash && w->proc.pid > 0) {
    // SIGKILL the worker while it is provably idle (blocked reading the
    // request we have not sent yet) and wait — without reaping, so the
    // normal cleanup path still owns the zombie — until it is actually
    // dead. Killing after the send would race the worker's reply on small
    // tasks and turn the scheduled fault into a coin flip; this ordering
    // guarantees the read below sees EOF -> kAborted every time, exactly
    // like an unscripted crash that lost the process mid-RPC.
    (void)::kill(w->proc.pid, SIGKILL);
    siginfo_t info;
    while (::waitid(P_PID, static_cast<id_t>(w->proc.pid), &info,
                    WEXITED | WNOWAIT) == -1 &&
           errno == EINTR) {
    }
  }
  const auto ship_start = std::chrono::steady_clock::now();
  const auto deadline =
      ship_start + std::chrono::milliseconds(options_.rpc_deadline_ms);
  const bool has_deadline = options_.rpc_deadline_ms > 0;
  Status sent = OkStatus();
  if (options_.chunk_bytes > 0 && payload.size() > options_.chunk_bytes) {
    // Bounded slices, each its own checksummed frame, all written under
    // the one RPC deadline. The worker starts deserializing the first
    // slice while the rest are still being written.
    const std::string_view whole(payload);
    std::string piece;
    for (size_t off = 0; off < whole.size() && sent.ok();
         off += options_.chunk_bytes) {
      const size_t n = std::min(options_.chunk_bytes, whole.size() - off);
      const bool final_slice = off + n == whole.size();
      piece.clear();
      AppendFrame(final_slice ? FrameType::kRequestLast
                              : FrameType::kRequestChunk,
                  whole.substr(off, n), &piece);
      sent = SendAllUntil(w->proc.fd, piece, deadline, has_deadline);
      if (sent.ok()) {
        ++tally->chunks_sent;
        tally->request_bytes_sent += piece.size();
      }
    }
  } else {
    std::string wire;
    AppendFrame(FrameType::kRequest, payload, &wire);
    sent = SendAllUntil(w->proc.fd, wire, deadline, has_deadline);
    if (sent.ok()) tally->request_bytes_sent += wire.size();
  }
  tally->ship_seconds += SecondsSince(ship_start);
  if (!sent.ok()) {
    return Status(sent.code(), sent.message() + EnvelopeSuffix(env));
  }
  const auto reply_start = std::chrono::steady_clock::now();
  FrameReadResult got =
      ReadFrameFromSocket(w->proc.fd, &w->inbuf, options_.rpc_deadline_ms);
  tally->reply_seconds += SecondsSince(reply_start);
  if (!got.status.ok()) {
    return Status(got.status.code(), got.status.message() + EnvelopeSuffix(env));
  }
  if (got.frame.type != FrameType::kReply) {
    return DataLossError("unexpected frame type from worker" +
                         EnvelopeSuffix(env));
  }
  if (env.fault == FaultKind::kFrameCorrupt) {
    // Flip one payload byte of a copy of the raw reply and push it through
    // the real decoder: the checksum must reject it. The live stream stays
    // in sync, so the worker remains usable.
    std::string corrupted = got.raw;
    corrupted[kFrameHeaderBytes] =
        static_cast<char>(corrupted[kFrameHeaderBytes] ^ 0x5A);
    Frame junk;
    size_t consumed = 0;
    const Status detect = TryDecodeFrame(corrupted, &junk, &consumed);
    if (detect.ok()) {
      return DataLossError("injected frame corruption went undetected" +
                           EnvelopeSuffix(env));
    }
    return Status(detect.code(), detect.message() + EnvelopeSuffix(env));
  }
  StatusOr<WireReply> decoded = TryDecodeWireReply(got.frame.payload);
  if (!decoded.ok()) {
    return Status(decoded.status().code(),
                  decoded.status().message() + EnvelopeSuffix(env));
  }
  *reply = std::move(*decoded);
  return OkStatus();
}

WireRequest SocketEngine::MakeRequest(WireTaskType type,
                                      const TaskEnvelope& env) const {
  WireRequest req;
  req.type = type;
  req.metric = options_.metric;
  req.problem = options_.problem;
  req.round = env.round;
  req.task = env.task;
  req.attempt = env.attempt;
  if (env.fault == FaultKind::kReplyDelay) {
    // Sleep long enough to lose the race against the RPC deadline unless
    // the schedule pinned an explicit delay.
    req.delay_ms = env.fault_param > 0 ? env.fault_param
                                       : options_.rpc_deadline_ms * 2 + 50;
  }
  return req;
}

StatusOr<WireReply> SocketEngine::Call(const TaskEnvelope& env,
                                       WireRequest* req,
                                       const Dataset* part,
                                       bool cacheable) {
  Worker* w = AcquireWorker();
  if (w == nullptr) return UnavailableError("socket engine is shut down");
  if (!w->alive) {
    const Status revived = SpawnSlot(w->slot, /*is_respawn=*/true);
    if (!revived.ok()) {
      ReleaseWorker(w, /*healthy=*/false);
      MutexLock lock(&mu_);
      ++stats_.rpc_errors;
      return revived;
    }
  }
  CallTally tally;
  const bool caching = cacheable && part != nullptr && !part->empty() &&
                       options_.worker_cache_bytes > 0;
  uint64_t key = 0;
  if (caching) {
    const auto fp_start = std::chrono::steady_clock::now();
    key = FingerprintRows(*part);
    tally.ship_seconds += SecondsSince(fp_start);
    if (env.fault == FaultKind::kCacheEvict) {
      // Inflict the eviction for real: the worker drops the entry before
      // serving, so the by-ref attempt below misses and the driver walks
      // the full fallback path.
      req->evict_fingerprint = key;
    }
  }
  if (env.fault == FaultKind::kReadStall) {
    // Tell the worker to sleep without reading, then ship normally: on a
    // partition larger than the kernel socket buffer the write below can
    // only complete if the deadline machinery is broken.
    const uint64_t stall_ms = env.fault_param > 0
                                  ? env.fault_param
                                  : options_.rpc_deadline_ms * 2 + 100;
    std::string stall;
    std::string param(reinterpret_cast<const char*>(&stall_ms),
                      sizeof(stall_ms));
    AppendFrame(FrameType::kStall, param, &stall);
    const Status stalled =
        SendAllWithDeadline(w->proc.fd, stall, options_.rpc_deadline_ms);
    if (!stalled.ok()) {
      ReleaseWorker(w, /*healthy=*/false);
      MutexLock lock(&mu_);
      ++stats_.rpc_errors;
      return Status(stalled.code(), stalled.message() + EnvelopeSuffix(env));
    }
  }
  WireReply reply;
  Status exchanged = OkStatus();
  bool by_ref = caching && w->cached.count(key) > 0 &&
                env.fault != FaultKind::kReadStall;
  if (by_ref) {
    req->points_by_ref = true;
    req->cache_insert = false;
    req->points_fingerprint = key;
    const auto enc_start = std::chrono::steady_clock::now();
    const std::string payload = EncodeWireRequest(*req);
    tally.ship_seconds += SecondsSince(enc_start);
    exchanged = Exchange(w, env, payload, &reply, &tally);
    if (exchanged.ok() && reply.cache_miss &&
        reply.status.code() == StatusCode::kNotFound) {
      // The worker evicted (or lost) the entry: fall back to a full ship.
      // Transparent to the caller — this is the certified degraded path.
      ++tally.cache_misses;
      w->cached.erase(key);
      by_ref = false;
    } else if (exchanged.ok()) {
      ++tally.cache_hits;
    }
  }
  if (!by_ref && exchanged.ok()) {
    req->points_by_ref = false;
    req->cache_insert = caching;
    req->points_fingerprint = caching ? key : 0;
    const auto enc_start = std::chrono::steady_clock::now();
    const std::string payload = EncodeWireRequest(*req, part);
    tally.ship_seconds += SecondsSince(enc_start);
    exchanged = Exchange(w, env, payload, &reply, &tally);
    if (exchanged.ok() && caching && reply.status.ok()) {
      // The worker verified the fingerprint and inserted the partition;
      // later calls for the same content send only the by-ref stub. (A
      // non-OK reply — fingerprint mismatch, task error — may not have
      // reached the insert, so it is not recorded.)
      w->cached.insert(key);
    }
  }
  // Injected frame corruption leaves the live stream in sync, so the
  // worker stays trusted; every other failure kills + respawns.
  const bool healthy =
      exchanged.ok() || (env.fault == FaultKind::kFrameCorrupt &&
                         exchanged.code() == StatusCode::kDataLoss);
  ReleaseWorker(w, healthy);
  {
    MutexLock lock(&mu_);
    stats_.cache_hits += tally.cache_hits;
    stats_.cache_misses += tally.cache_misses;
    stats_.chunks_sent += tally.chunks_sent;
    stats_.request_bytes_sent += tally.request_bytes_sent;
    stats_.ship_seconds += tally.ship_seconds;
    stats_.reply_seconds += tally.reply_seconds;
    if (!exchanged.ok()) ++stats_.rpc_errors;
  }
  if (!exchanged.ok()) return exchanged;
  if (reply.type != req->type) {
    MutexLock lock(&mu_);
    ++stats_.rpc_errors;
    return DataLossError("reply task type does not match the request" +
                         EnvelopeSuffix(env));
  }
  return reply;
}

void SocketEngine::HeartbeatLoop() {
  MutexLock lock(&mu_);
  for (;;) {
    const auto wake = std::chrono::steady_clock::now() +
                      std::chrono::milliseconds(options_.heartbeat_ms);
    while (!shutdown_ && std::chrono::steady_clock::now() < wake) {
      cv_.WaitUntil(mu_, wake);
    }
    if (shutdown_) return;
    for (size_t i = 0; i < workers_.size(); ++i) {
      auto it = std::find(free_.begin(), free_.end(), i);
      if (it == free_.end()) continue;  // busy: the RPC path polices it
      free_.erase(it);  // hold the slot out while probing
      Worker* w = &workers_[i];
      lock.Unlock();
      bool live = false;
      if (w->alive) {
        live = PingWorker(
            w, std::max<uint64_t>(options_.heartbeat_ms, uint64_t{100}));
      }
      const bool failed_ping = w->alive && !live;
      if (!live) {
        KillSubprocess(&w->proc);
        (void)WaitSubprocess(&w->proc, 2000);
        w->inbuf.clear();
        w->alive = false;
        w->cached.clear();
        if (!SpawnSlot(i, /*is_respawn=*/true).ok()) {
          // Slot stays dead but circulates; the next RPC to draw it
          // retries the respawn.
        }
      }
      lock.Lock();
      ++stats_.heartbeats_sent;
      if (failed_ping) ++stats_.heartbeat_failures;
      free_.push_back(i);
      cv_.NotifyAll();
      if (shutdown_) return;
    }
  }
}

StatusOr<PointSet> SocketEngine::Coreset(const TaskEnvelope& env,
                                         const PointSet& part,
                                         const CoresetSpec& spec) {
  DIVERSE_ASSIGN_OR_RETURN(Dataset rows, Dataset::TryFromPoints(part));
  return CoresetRows(env, rows, spec);
}

StatusOr<PointSet> SocketEngine::CoresetRows(const TaskEnvelope& env,
                                             const Dataset& part,
                                             const CoresetSpec& spec) {
  WireRequest req = MakeRequest(WireTaskType::kCoreset, env);
  req.k_prime = spec.k_prime;
  req.delegates = spec.delegates;
  req.extended = spec.extended;
  StatusOr<WireReply> reply = Call(env, &req, &part, /*cacheable=*/true);
  if (!reply.ok()) return reply.status();
  if (!reply->status.ok()) return reply->status;
  return std::move(reply->points);
}

StatusOr<GenCoresetResult> SocketEngine::GenCoreset(const TaskEnvelope& env,
                                                    const PointSet& part,
                                                    size_t k, size_t k_prime) {
  DIVERSE_ASSIGN_OR_RETURN(Dataset rows, Dataset::TryFromPoints(part));
  return GenCoresetRows(env, rows, k, k_prime);
}

StatusOr<GenCoresetResult> SocketEngine::GenCoresetRows(
    const TaskEnvelope& env, const Dataset& part, size_t k, size_t k_prime) {
  WireRequest req = MakeRequest(WireTaskType::kGenCoreset, env);
  req.k = k;
  req.k_prime = k_prime;
  StatusOr<WireReply> reply = Call(env, &req, &part, /*cacheable=*/true);
  if (!reply.ok()) return reply.status();
  if (!reply->status.ok()) return reply->status;
  GenCoresetResult result;
  result.gen = std::move(reply->gen);
  result.range = reply->range;
  return result;
}

StatusOr<PointSet> SocketEngine::Solve(const TaskEnvelope& env,
                                       const PointSet& aggregate, size_t k) {
  WireRequest req = MakeRequest(WireTaskType::kSolve, env);
  DIVERSE_ASSIGN_OR_RETURN(req.part, Dataset::TryFromPoints(aggregate));
  req.k = k;
  StatusOr<WireReply> reply = Call(env, &req, nullptr, /*cacheable=*/false);
  if (!reply.ok()) return reply.status();
  if (!reply->status.ok()) return reply->status;
  return std::move(reply->points);
}

StatusOr<GeneralizedCoreset> SocketEngine::GenSolve(
    const TaskEnvelope& env, const GeneralizedCoreset& merged, size_t k) {
  WireRequest req = MakeRequest(WireTaskType::kGenSolve, env);
  req.gen = merged;
  req.k = k;
  StatusOr<WireReply> reply = Call(env, &req, nullptr, /*cacheable=*/false);
  if (!reply.ok()) return reply.status();
  if (!reply->status.ok()) return reply->status;
  return std::move(reply->gen);
}

StatusOr<PointSet> SocketEngine::Instantiate(const TaskEnvelope& env,
                                             const GeneralizedCoreset& selected,
                                             const PointSet& part,
                                             double range) {
  DIVERSE_ASSIGN_OR_RETURN(Dataset rows, Dataset::TryFromPoints(part));
  return InstantiateRows(env, selected, rows, range);
}

StatusOr<PointSet> SocketEngine::InstantiateRows(
    const TaskEnvelope& env, const GeneralizedCoreset& selected,
    const Dataset& part, double range) {
  WireRequest req = MakeRequest(WireTaskType::kInstantiate, env);
  req.gen = selected;
  req.range = range;
  StatusOr<WireReply> reply = Call(env, &req, &part, /*cacheable=*/true);
  if (!reply.ok()) return reply.status();
  if (!reply->status.ok()) return reply->status;
  return std::move(reply->points);
}

}  // namespace diverse
