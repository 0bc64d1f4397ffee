// Hermetic tests of the worker-side partition cache and the streaming
// request decoder (no sockets, no forked processes): the LRU eviction
// policy, content fingerprints, the by-ref / cache-miss / stamp-mismatch
// protocol through ExecuteWireTask, chunked-feed == monolithic decode
// parity, and the net_io helpers (backoff clamp, poll-timeout truncation)
// whose failure modes were hangs and shift-overflow UB on the socket path.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "comm/net_io.h"
#include "comm/serialize.h"
#include "comm/worker_core.h"
#include "core/dataset.h"
#include "core/point.h"
#include "util/rng.h"
#include "util/status.h"

namespace diverse {
namespace {

PointSet MakePoints(size_t n, float offset) {
  PointSet points;
  for (size_t i = 0; i < n; ++i) {
    points.push_back(Point::Dense(
        {offset + static_cast<float>(i), offset - static_cast<float>(i),
         0.5f * static_cast<float>(i)}));
  }
  return points;
}

// ---------------------------------------------------------------------------
// FingerprintRows: the content stamp.

TEST(FingerprintTest, IsPureContent) {
  Dataset a(MakePoints(16, 1.0f));
  Dataset b(MakePoints(16, 1.0f));  // separate allocation, same content
  EXPECT_EQ(FingerprintRows(a), FingerprintRows(b));
}

TEST(FingerprintTest, SensitiveToValuesCountAndOrder) {
  PointSet base = MakePoints(8, 1.0f);
  const uint64_t fp = FingerprintRows(Dataset(base));

  PointSet changed = base;
  std::vector<float> vals = changed[3].dense_values();
  vals[1] += 0.25f;
  changed[3] = Point::Dense(std::move(vals));
  EXPECT_NE(FingerprintRows(Dataset(changed)), fp);

  PointSet shorter = base;
  shorter.pop_back();
  EXPECT_NE(FingerprintRows(Dataset(shorter)), fp);

  PointSet swapped = base;
  std::swap(swapped[0], swapped[1]);
  EXPECT_NE(FingerprintRows(Dataset(swapped)), fp);
}

TEST(FingerprintTest, DistinguishesDenseFromSparseAndNeverReturnsZero) {
  // A dense point and a sparse point with identical raw value bytes must
  // not collide (the per-point header word encodes the representation).
  PointSet dense;
  dense.push_back(Point::Dense({1.0f, 2.0f}));
  PointSet sparse;
  sparse.push_back(Point::Sparse({0, 1}, {1.0f, 2.0f}, 2));
  EXPECT_NE(FingerprintRows(Dataset(dense)), FingerprintRows(Dataset(sparse)));
  // 0 is the "untagged" wire sentinel; the empty set must not produce it.
  EXPECT_NE(FingerprintRows(Dataset()), 0u);
}

// The decoder hashes each partition record as it appends it; its
// decoded_fingerprint must equal FingerprintRows of the rows it built (and
// of the rows the driver shipped) however the payload is sliced, including
// slices that end mid-record.
TEST(FingerprintTest, DecoderFingerprintMatchesFingerprintRowsAtEverySplit) {
  PointSet sparse;
  sparse.push_back(Point::Sparse({1, 4, 7}, {0.5f, -1.5f, 2.0f}, 9));
  sparse.push_back(Point::Sparse({}, {}, 9));  // nnz 0
  sparse.push_back(Point::Sparse({0, 2, 3, 5, 8}, {1, 2, 3, 4, 5}, 9));
  PointSet mixed = {Point::Dense({1, 2, 3, 4, 5, 6, 7, 8, 9}), sparse[0],
                    sparse[1], Point::Dense({0, 0, 0, 0, 0, 0, 0, 0, 0}),
                    sparse[2], Point::Dense({9, 8, 7, 6, 5, 4, 3, 2, 1})};
  // Random values, whose squares rarely sum exactly: a norm summed in
  // another order than Point::ComputeNorm's differs on some of these rows.
  PointSet random;
  Rng rng(5);
  for (int i = 0; i < 40; ++i) {
    std::vector<uint32_t> indices;
    std::vector<float> values;
    for (uint32_t j = 0; j < 9; ++j) {
      if (i % 2 == 0 || rng.NextDouble() < 0.5) {
        indices.push_back(j);
        values.push_back(static_cast<float>(rng.NextDouble()));
      }
    }
    random.push_back(i % 2 == 0 ? Point::Dense(std::move(values))
                                : Point::Sparse(std::move(indices),
                                                std::move(values), 9));
  }
  const std::vector<std::pair<const char*, PointSet>> cases = {
      {"dense", MakePoints(9, 2.0f)},
      {"sparse", sparse},
      {"mixed", mixed},
      {"random mixed", random},
      {"empty", {}},
      {"one row", MakePoints(1, 3.0f)},
  };
  for (const auto& [name, points] : cases) {
    WireRequest req;
    req.metric = "euclidean";
    req.part = Dataset(points);
    const uint64_t shipped = FingerprintRows(req.part);
    const std::string payload = EncodeWireRequest(req);
    const std::string_view bytes = payload;
    for (size_t split = 0; split <= bytes.size(); ++split) {
      StreamingRequestDecoder decoder;
      ASSERT_TRUE(decoder.Feed(bytes.substr(0, split)).ok());
      ASSERT_TRUE(decoder.Feed(bytes.substr(split)).ok());
      StatusOr<WireRequest> decoded = decoder.Finish();
      ASSERT_TRUE(decoded.ok()) << name << ": " << decoded.status().ToString();
      EXPECT_EQ(decoded->decoded_fingerprint, FingerprintRows(decoded->part))
          << name << " split at " << split;
      EXPECT_EQ(decoded->decoded_fingerprint, shipped)
          << name << " split at " << split;
      const Dataset& part = decoded->part;
      ASSERT_EQ(part.size(), req.part.size());
      for (size_t i = 0; i < part.size(); ++i) {
        EXPECT_TRUE(part.RowEquals(i, points[i])) << name << " row " << i;
        EXPECT_EQ(part.norm(i), req.part.norm(i)) << name << " row " << i;
      }
      EXPECT_EQ(part.sparse_stats().rows, req.part.sparse_stats().rows);
      EXPECT_EQ(part.sparse_stats().total_nnz,
                req.part.sparse_stats().total_nnz);
      EXPECT_EQ(part.sparse_stats().max_nnz, req.part.sparse_stats().max_nnz);
      EXPECT_EQ(part.screen_stats().min_positive_norm,
                req.part.screen_stats().min_positive_norm);
      EXPECT_EQ(part.screen_stats().max_norm,
                req.part.screen_stats().max_norm);
    }
  }
}

// ---------------------------------------------------------------------------
// WorkerPartitionCache: bytes-bounded LRU.

TEST(WorkerCacheTest, LookupMissThenInsertThenHit) {
  WorkerPartitionCache cache(size_t{1} << 20);
  EXPECT_EQ(cache.Lookup(42), nullptr);
  EXPECT_EQ(cache.misses(), 1u);

  Dataset part(MakePoints(10, 2.0f));
  const uint64_t fp = FingerprintRows(part);
  auto stored = cache.Insert(fp, part);
  ASSERT_NE(stored, nullptr);
  EXPECT_EQ(stored->size(), 10u);
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_GT(cache.size_bytes(), 0u);

  auto hit = cache.Lookup(fp);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit.get(), stored.get());
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(WorkerCacheTest, EvictsLeastRecentlyUsedUnderPressure) {
  const size_t one_entry = Dataset(MakePoints(64, 0.0f)).MemoryBytes();
  // Room for two resident entries, not three.
  WorkerPartitionCache cache(2 * one_entry + one_entry / 2);
  Dataset a(MakePoints(64, 1.0f)), b(MakePoints(64, 2.0f)),
      c(MakePoints(64, 3.0f));
  const uint64_t fa = FingerprintRows(a), fb = FingerprintRows(b),
                 fc = FingerprintRows(c);
  (void)cache.Insert(fa, a);
  (void)cache.Insert(fb, b);
  ASSERT_EQ(cache.entries(), 2u);
  // Touch `a` so `b` becomes the LRU victim.
  ASSERT_NE(cache.Lookup(fa), nullptr);
  (void)cache.Insert(fc, c);
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_GE(cache.evictions(), 1u);
  EXPECT_NE(cache.Lookup(fa), nullptr);
  EXPECT_EQ(cache.Lookup(fb), nullptr);  // evicted
  EXPECT_NE(cache.Lookup(fc), nullptr);
}

TEST(WorkerCacheTest, OversizeEntryBypassesStorage) {
  WorkerPartitionCache cache(64);  // smaller than any real partition
  Dataset part(MakePoints(32, 0.0f));
  const uint64_t fp = FingerprintRows(part);
  auto stored = cache.Insert(fp, part);
  ASSERT_NE(stored, nullptr);  // caller still gets the partition
  EXPECT_EQ(stored->size(), 32u);
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.Lookup(fp), nullptr);
}

TEST(WorkerCacheTest, EvictDropsTheEntry) {
  WorkerPartitionCache cache(size_t{1} << 20);
  Dataset part(MakePoints(8, 5.0f));
  const uint64_t fp = FingerprintRows(part);
  (void)cache.Insert(fp, part);
  EXPECT_TRUE(cache.Evict(fp));
  EXPECT_FALSE(cache.Evict(fp));  // already gone
  EXPECT_EQ(cache.Lookup(fp), nullptr);
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.size_bytes(), 0u);
}

TEST(WorkerCacheTest, SharedPtrSurvivesEviction) {
  WorkerPartitionCache cache(size_t{1} << 20);
  Dataset part(MakePoints(8, 7.0f));
  const uint64_t fp = FingerprintRows(part);
  auto held = cache.Insert(fp, part);
  ASSERT_TRUE(cache.Evict(fp));
  // A task computing on the partition keeps it alive past the eviction.
  EXPECT_EQ(held->size(), 8u);
}

// ---------------------------------------------------------------------------
// The cache protocol through the worker execution core.

WireRequest MakeSolveRequest(const PointSet& points, size_t k) {
  WireRequest req;
  req.type = WireTaskType::kSolve;
  req.metric = "euclidean";
  req.round = "solve";
  req.k = k;
  req.part = Dataset(points);
  return req;
}

TEST(CacheProtocolTest, ByRefMissRepliesNotFoundWithCacheMissBit) {
  WorkerPartitionCache cache(size_t{1} << 20);
  WireRequest req = MakeSolveRequest(PointSet{}, 3);
  req.points_by_ref = true;
  req.points_fingerprint = 0xDEADBEEFu;
  StatusOr<WireReply> reply =
      TryDecodeWireReply(ExecuteWireTask(EncodeWireRequest(req), &cache));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->status.code(), StatusCode::kNotFound);
  EXPECT_TRUE(reply->cache_miss);
  EXPECT_TRUE(reply->points.empty());  // no compute happened
}

TEST(CacheProtocolTest, CachedReplyIsBitIdenticalToInlineShip) {
  const PointSet part = MakePoints(40, 3.0f);
  const uint64_t fp = FingerprintRows(Dataset(part));

  // Reference: a plain inline ship with no cache interaction.
  const std::string inline_reply =
      ExecuteWireTask(EncodeWireRequest(MakeSolveRequest(part, 5)), nullptr);

  // Ship once with cache_insert, then solve again by reference.
  WorkerPartitionCache cache(size_t{1} << 20);
  WireRequest insert = MakeSolveRequest(part, 5);
  insert.cache_insert = true;
  insert.points_fingerprint = fp;
  const std::string insert_reply =
      ExecuteWireTask(EncodeWireRequest(insert), &cache);
  EXPECT_EQ(insert_reply, inline_reply);

  WireRequest by_ref = MakeSolveRequest(PointSet{}, 5);
  by_ref.points_by_ref = true;
  by_ref.points_fingerprint = fp;
  const std::string cached_reply =
      ExecuteWireTask(EncodeWireRequest(by_ref), &cache);
  // The invariant the whole feature rests on: cached == shipped, to the
  // byte.
  EXPECT_EQ(cached_reply, inline_reply);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(CacheProtocolTest, FingerprintMismatchIsDataLossAndNothingIsCached) {
  WorkerPartitionCache cache(size_t{1} << 20);
  WireRequest req = MakeSolveRequest(MakePoints(12, 1.0f), 3);
  req.cache_insert = true;
  req.points_fingerprint = FingerprintRows(req.part) ^ 0x1;  // corrupt
  StatusOr<WireReply> reply =
      TryDecodeWireReply(ExecuteWireTask(EncodeWireRequest(req), &cache));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->status.code(), StatusCode::kDataLoss);
  EXPECT_NE(reply->status.message().find("fingerprint mismatch"),
            std::string::npos)
      << reply->status.message();
  EXPECT_EQ(cache.entries(), 0u);
}

TEST(CacheProtocolTest, EvictFingerprintForcesTheMissPath) {
  WorkerPartitionCache cache(size_t{1} << 20);
  const PointSet part = MakePoints(20, 2.0f);
  const uint64_t fp = FingerprintRows(Dataset(part));
  WireRequest insert = MakeSolveRequest(part, 4);
  insert.cache_insert = true;
  insert.points_fingerprint = fp;
  (void)ExecuteWireTask(EncodeWireRequest(insert), &cache);
  ASSERT_EQ(cache.entries(), 1u);

  // The cache-evict fault: evict rides on the by-ref request itself, so
  // the worker drops the entry and then reports the miss.
  WireRequest by_ref = MakeSolveRequest(PointSet{}, 4);
  by_ref.points_by_ref = true;
  by_ref.points_fingerprint = fp;
  by_ref.evict_fingerprint = fp;
  StatusOr<WireReply> reply =
      TryDecodeWireReply(ExecuteWireTask(EncodeWireRequest(by_ref), &cache));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_TRUE(reply->cache_miss);
  EXPECT_EQ(reply->status.code(), StatusCode::kNotFound);
  EXPECT_EQ(cache.entries(), 0u);
}

// A kCoreset request whose partition section holds `points` record for
// record — also a mixed-dim set, which no Dataset (and so no encoder) can
// produce but a corrupt or hostile peer can still send.
std::string CoresetPayloadWithPartition(const PointSet& points) {
  WireRequest req;
  req.type = WireTaskType::kCoreset;
  req.metric = "euclidean";
  req.round = "coreset";
  req.k_prime = 2;
  std::string payload = EncodeWireRequest(req);
  // Drop the counts of the two empty trailing sections (part, gen), then
  // write them again with `points` as the partition.
  payload.resize(payload.size() - 2 * sizeof(uint64_t));
  AppendPointSet(points, &payload);
  AppendGenCoreset(GeneralizedCoreset(), &payload);
  return payload;
}

PointSet MixedDimPoints() {
  PointSet points = MakePoints(4, 1.0f);  // dim 3
  points.push_back(Point::Dense({1.0f, 2.0f}));
  points.push_back(Point::Dense({3.0f, 4.0f, 5.0f}));
  return points;
}

TEST(CacheProtocolTest, MixedDimPartitionIsAnErrorReplyNotAnAbort) {
  // Same-dim control: the hand-built payload is a valid request.
  StatusOr<WireReply> ok_reply = TryDecodeWireReply(
      ExecuteWireTask(CoresetPayloadWithPartition(MakePoints(6, 1.0f))));
  ASSERT_TRUE(ok_reply.ok()) << ok_reply.status().ToString();
  ASSERT_TRUE(ok_reply->status.ok()) << ok_reply->status.ToString();
  EXPECT_EQ(ok_reply->points.size(), 2u);

  // Record 4 has dim 2 but record 0 has dim 3: the worker answers with the
  // loaders' dim-mismatch error instead of CHECK-aborting in the task body.
  WorkerPartitionCache cache(size_t{1} << 20);
  StatusOr<WireReply> reply = TryDecodeWireReply(
      ExecuteWireTask(CoresetPayloadWithPartition(MixedDimPoints()), &cache));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(reply->status.message(),
            "point 4 has dim 2 but point 0 has dim 3");
  EXPECT_TRUE(reply->points.empty());
  EXPECT_EQ(cache.entries(), 0u);
}

// ---------------------------------------------------------------------------
// StreamingRequestDecoder: chunked feed == monolithic decode.

WireRequest MakeBigRequest() {
  WireRequest req;
  req.type = WireTaskType::kCoreset;
  req.metric = "euclidean";
  req.round = "coreset";
  req.task = 7;
  req.attempt = 1;
  req.k_prime = 9;
  req.delegates = 2;
  req.extended = true;
  req.part = Dataset(MakePoints(300, 4.0f));
  req.gen.Add(Point::Dense({1.0f, 2.0f, 3.0f}), 3);
  req.gen.Add(Point::Sparse({1, 4}, {0.5f, -2.0f}, 8), 1);
  return req;
}

TEST(StreamingDecoderTest, ChunkedFeedMatchesMonolithicAtEverySplitSize) {
  const WireRequest req = MakeBigRequest();
  const std::string payload = EncodeWireRequest(req);
  for (size_t chunk : {size_t{1}, size_t{7}, size_t{64}, size_t{1000},
                       payload.size() / 2, payload.size()}) {
    StreamingRequestDecoder decoder;
    for (size_t off = 0; off < payload.size(); off += chunk) {
      ASSERT_TRUE(
          decoder
              .Feed(std::string_view(payload).substr(
                  off, std::min(chunk, payload.size() - off)))
              .ok())
          << "chunk size " << chunk << " at offset " << off;
    }
    StatusOr<WireRequest> decoded = decoder.Finish();
    ASSERT_TRUE(decoded.ok())
        << "chunk " << chunk << ": " << decoded.status().ToString();
    // Bit-identity via re-encode: the streamed decode must reproduce the
    // exact source payload.
    EXPECT_EQ(EncodeWireRequest(*decoded), payload) << "chunk " << chunk;
  }
}

TEST(StreamingDecoderTest, DecodesPointsWhileLaterChunksAreStillInFlight) {
  const std::string payload = EncodeWireRequest(MakeBigRequest());
  StreamingRequestDecoder decoder;
  // Feed 70%: the decoder must have consumed whole points already (the
  // overlap the chunked ship exists for), without buffering everything.
  ASSERT_TRUE(
      decoder.Feed(std::string_view(payload).substr(0, payload.size() * 7 / 10))
          .ok());
  EXPECT_GT(decoder.points_decoded(), 0u);
  EXPECT_LT(decoder.buffered_bytes(), payload.size() / 2);
  ASSERT_TRUE(
      decoder.Feed(std::string_view(payload).substr(payload.size() * 7 / 10))
          .ok());
  StatusOr<WireRequest> decoded = decoder.Finish();
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->part.size(), 300u);
}

TEST(StreamingDecoderTest, CertainStructuralErrorsSurfaceMidStream) {
  std::string payload = EncodeWireRequest(MakeBigRequest());
  payload[0] = 0x7F;  // unknown task type: certain corruption, first byte
  StreamingRequestDecoder decoder;
  const Status fed = decoder.Feed(std::string_view(payload).substr(0, 16));
  EXPECT_EQ(fed.code(), StatusCode::kInvalidArgument);
  // Sticky: further feeds keep reporting the same error.
  EXPECT_EQ(decoder.Feed("more").code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(decoder.Finish().ok());
}

TEST(StreamingDecoderTest, DimMismatchSurfacesOnceTheRecordIsComplete) {
  const std::string payload = CoresetPayloadWithPartition(MixedDimPoints());
  const StatusOr<WireRequest> mono = TryDecodeWireRequest(payload);
  ASSERT_FALSE(mono.ok());
  EXPECT_EQ(mono.status().code(), StatusCode::kInvalidArgument);
  // Fed one byte at a time, the decoder reports the mismatch exactly when
  // the mismatching record's last byte arrives — certain corruption, like
  // an unknown task type — and the streamed verdict equals the monolithic.
  StreamingRequestDecoder decoder;
  size_t fed = 0;
  Status st = OkStatus();
  while (st.ok() && fed < payload.size()) {
    st = decoder.Feed(std::string_view(payload).substr(fed++, 1));
  }
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(decoder.points_decoded(), 4u);
  // Only the last record (a dim-3 point) and the empty gen section's count
  // follow the mismatching record.
  const size_t record_end =
      payload.size() - (9 + 3 * sizeof(float)) - sizeof(uint64_t);
  EXPECT_EQ(fed, record_end);
  StatusOr<WireRequest> streamed = decoder.Finish();
  ASSERT_FALSE(streamed.ok());
  EXPECT_EQ(streamed.status().ToString(), mono.status().ToString());
}

TEST(StreamingDecoderTest, TruncationIsOnlyDiagnosedAtFinish) {
  const std::string payload = EncodeWireRequest(MakeBigRequest());
  StreamingRequestDecoder decoder;
  ASSERT_TRUE(
      decoder.Feed(std::string_view(payload).substr(0, payload.size() - 3))
          .ok());
  StatusOr<WireRequest> decoded = decoder.Finish();
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().code() == StatusCode::kDataLoss ||
              decoded.status().code() == StatusCode::kInvalidArgument)
      << decoded.status().ToString();
}

TEST(StreamingDecoderTest, ByRefRequestCarriesNoPointsSection) {
  WireRequest req = MakeBigRequest();
  req.points_by_ref = true;
  req.points_fingerprint = 0x1234;
  const std::string payload = EncodeWireRequest(req);
  // Far smaller than the inline ship: the whole point of the stub.
  EXPECT_LT(payload.size(), 400u);
  StatusOr<WireRequest> decoded = TryDecodeWireRequest(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(decoded->points_by_ref);
  EXPECT_TRUE(decoded->part.empty());
  EXPECT_EQ(decoded->points_fingerprint, 0x1234u);
  EXPECT_EQ(decoded->decoded_fingerprint, 0u);  // no part section to hash
  EXPECT_EQ(decoded->gen.size(), 2u);  // the gen section still ships
}

// ---------------------------------------------------------------------------
// net_io: the arithmetic whose failure modes were UB and infinite hangs.

TEST(NetIoTest, RespawnBackoffClampsTheShiftBeforeShifting) {
  EXPECT_EQ(RespawnBackoffMs(10, 0), 0u);   // attempt 0: no backoff
  EXPECT_EQ(RespawnBackoffMs(10, 1), 10u);  // 10 << 0
  EXPECT_EQ(RespawnBackoffMs(10, 2), 20u);
  EXPECT_EQ(RespawnBackoffMs(10, 5), 160u);
  // The old expression `base << (attempt - 1)` was UB from attempt 65 on
  // (shift >= width) and overflowed long before; now every large attempt
  // saturates at the cap.
  for (size_t attempt : {size_t{20}, size_t{64}, size_t{65}, size_t{100},
                         size_t{1000000}}) {
    EXPECT_EQ(RespawnBackoffMs(10, attempt), kMaxRespawnBackoffMs)
        << "attempt " << attempt;
  }
  EXPECT_EQ(RespawnBackoffMs(0, 17), 0u);  // disabled backoff stays disabled
  // A base already above the cap pins to the cap immediately.
  EXPECT_EQ(RespawnBackoffMs(kMaxRespawnBackoffMs + 1, 3),
            kMaxRespawnBackoffMs);
}

TEST(NetIoTest, PollTimeoutRoundsSubMillisecondRemaindersUpNotToZero) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point now = Clock::now();
  // Expired (and exactly-now) deadlines: 0, the caller's "expired" signal.
  EXPECT_EQ(PollTimeoutMs(now, now), 0);
  EXPECT_EQ(PollTimeoutMs(now, now - std::chrono::milliseconds(5)), 0);
  // A sub-millisecond remainder must round UP to 1: a truncating cast
  // yields 0 here, and poll(0) spins — while a negative cast result would
  // make poll block forever and the RPC deadline never fire.
  EXPECT_EQ(PollTimeoutMs(now, now + std::chrono::microseconds(200)), 1);
  EXPECT_EQ(PollTimeoutMs(now, now + std::chrono::microseconds(999)), 1);
  EXPECT_EQ(PollTimeoutMs(now, now + std::chrono::milliseconds(2)), 2);
  // Huge remainders clamp to the 60s poll quantum (the deadline is
  // re-checked at the loop top, so the clamp costs nothing).
  EXPECT_EQ(PollTimeoutMs(now, now + std::chrono::hours(2)), 60000);
  // Never negative, for any remainder.
  for (int us : {-1000000, -1, 0, 1, 500, 999, 1001, 1000000}) {
    EXPECT_GE(PollTimeoutMs(now, now + std::chrono::microseconds(us)), 0)
        << us << "us";
  }
}

}  // namespace
}  // namespace diverse
