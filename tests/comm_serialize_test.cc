// Wire-format tests for the distributed runtime: frames (comm/frame.h)
// and task payloads (comm/serialize.h). The load-bearing property is
// bit-identical round-trips — a partition or core-set crossing the
// transport must decode to exactly the bytes that were encoded, which the
// fault-free "distributed == in-process" tests build on — plus diagnosable
// Status (never a crash, never silent garbage) on corrupt input.

#include <cstddef>
#include <cstdint>
#include <random>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "comm/frame.h"
#include "comm/serialize.h"
#include "core/dataset.h"
#include "core/generalized_coreset.h"
#include "core/point.h"
#include "crc32_reference.h"
#include "util/status.h"

namespace diverse {
namespace {

// ---------------------------------------------------------------------------
// Frame protocol.

TEST(FrameTest, RoundTripsEveryType) {
  for (FrameType type :
       {FrameType::kRequest, FrameType::kReply, FrameType::kHeartbeat,
        FrameType::kHeartbeatAck, FrameType::kShutdown}) {
    std::string buf;
    AppendFrame(type, "hello frame", &buf);
    Frame frame;
    size_t consumed = 0;
    ASSERT_TRUE(TryDecodeFrame(buf, &frame, &consumed).ok());
    EXPECT_EQ(consumed, buf.size());
    EXPECT_EQ(frame.type, type);
    EXPECT_EQ(frame.payload, "hello frame");
  }
}

TEST(FrameTest, EmptyPayloadRoundTrips) {
  std::string buf;
  AppendFrame(FrameType::kHeartbeat, "", &buf);
  EXPECT_EQ(buf.size(), kFrameHeaderBytes);
  Frame frame;
  size_t consumed = 0;
  ASSERT_TRUE(TryDecodeFrame(buf, &frame, &consumed).ok());
  EXPECT_EQ(consumed, buf.size());
  EXPECT_TRUE(frame.payload.empty());
}

TEST(FrameTest, IncrementalDecodeNeedsMoreBytes) {
  std::string buf;
  AppendFrame(FrameType::kRequest, "stream me byte by byte", &buf);
  // Every strict prefix is "need more" (OK + consumed == 0), never an error
  // and never a partial frame.
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    Frame frame;
    size_t consumed = 1;
    ASSERT_TRUE(TryDecodeFrame(buf.substr(0, cut), &frame, &consumed).ok())
        << "prefix length " << cut;
    EXPECT_EQ(consumed, 0u) << "prefix length " << cut;
  }
}

TEST(FrameTest, DecodesFirstOfTwoBackToBackFrames) {
  std::string buf;
  AppendFrame(FrameType::kRequest, "first", &buf);
  const size_t first_size = buf.size();
  AppendFrame(FrameType::kReply, "second", &buf);
  Frame frame;
  size_t consumed = 0;
  ASSERT_TRUE(TryDecodeFrame(buf, &frame, &consumed).ok());
  EXPECT_EQ(consumed, first_size);
  EXPECT_EQ(frame.payload, "first");
}

TEST(FrameTest, BadMagicIsInvalidArgument) {
  std::string buf;
  AppendFrame(FrameType::kRequest, "x", &buf);
  buf[0] = 'Z';
  Frame frame;
  size_t consumed = 0;
  Status s = TryDecodeFrame(buf, &frame, &consumed);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("magic"), std::string::npos);
}

TEST(FrameTest, UnknownTypeIsInvalidArgument) {
  std::string buf;
  AppendFrame(FrameType::kRequest, "x", &buf);
  buf[4] = '\x7f';  // type byte
  Frame frame;
  size_t consumed = 0;
  EXPECT_EQ(TryDecodeFrame(buf, &frame, &consumed).code(),
            StatusCode::kInvalidArgument);
}

TEST(FrameTest, OversizedLengthRejectedBeforeBuffering) {
  std::string buf;
  AppendFrame(FrameType::kRequest, "x", &buf);
  // Rewrite the u64 length field to 2^62: decode must reject from the
  // header alone instead of waiting for (or allocating) 4 EiB.
  uint64_t huge = uint64_t{1} << 62;
  for (int b = 0; b < 8; ++b) buf[5 + b] = static_cast<char>(huge >> (8 * b));
  Frame frame;
  size_t consumed = 0;
  EXPECT_EQ(TryDecodeFrame(buf, &frame, &consumed).code(),
            StatusCode::kInvalidArgument);
}

TEST(FrameTest, ChecksumMismatchIsDataLoss) {
  std::string buf;
  AppendFrame(FrameType::kReply, "payload under guard", &buf);
  for (size_t i = kFrameHeaderBytes; i < buf.size(); ++i) {
    std::string corrupt = buf;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x01);
    Frame frame;
    size_t consumed = 0;
    Status s = TryDecodeFrame(corrupt, &frame, &consumed);
    EXPECT_EQ(s.code(), StatusCode::kDataLoss) << "flipped byte " << i;
    EXPECT_NE(s.message().find("checksum"), std::string::npos);
  }
}

TEST(FrameTest, Crc32MatchesKnownVector) {
  // The IEEE 802.3 reference value for "123456789".
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0x00000000u);
  EXPECT_EQ(ReferenceCrc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(ReferenceCrc32(""), 0x00000000u);
}

TEST(FrameTest, Crc32MatchesByteWiseReferenceAtEveryAlignment) {
  // Slice-by-8 folds 8 bytes per step and finishes byte-wise, so lengths
  // around multiples of 8 and every start offset within a word matter.
  std::mt19937 rng(20051);
  std::string buf(4096 + 8, '\0');
  for (char& c : buf) c = static_cast<char>(rng());
  std::vector<size_t> lengths = {0, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 4096};
  std::uniform_int_distribution<size_t> len_dist(0, 4096);
  for (int i = 0; i < 40; ++i) lengths.push_back(len_dist(rng));
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len : lengths) {
      const std::string_view bytes = std::string_view(buf).substr(offset, len);
      ASSERT_EQ(Crc32(bytes), ReferenceCrc32(bytes))
          << "offset " << offset << " length " << len;
    }
  }
}

// ---------------------------------------------------------------------------
// Point-set payloads.

PointSet SamplePoints() {
  PointSet pts;
  pts.push_back(Point::Dense({1.0f, -2.5f, 3.25f}));
  pts.push_back(Point::Dense({0.0f, -0.0f, 1e-38f}));
  pts.push_back(Point::Sparse({1, 4, 7}, {0.5f, -1.5f, 2.0f}, 9));
  // A stored zero in CSR form must survive: dropping it would change nnz
  // and thus the bytes (and Jaccard semantics).
  pts.push_back(Point::Sparse({0, 3}, {0.0f, 4.0f}, 9));
  return pts;
}

std::string EncodeSet(const PointSet& pts) {
  std::string out;
  AppendPointSet(pts, &out);
  return out;
}

TEST(SerializeTest, PointSetRoundTripsBitIdentically) {
  const PointSet pts = SamplePoints();
  const std::string bytes = EncodeSet(pts);
  ByteReader in(bytes);
  StatusOr<PointSet> back = TryReadPointSet(&in, "test payload");
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->size(), pts.size());
  for (size_t i = 0; i < pts.size(); ++i) {
    EXPECT_TRUE((*back)[i] == pts[i]) << "point " << i;
  }
  // Bit-identity, not just semantic equality: re-encoding reproduces the
  // exact bytes (float payloads are moved raw, never reformatted).
  EXPECT_EQ(EncodeSet(*back), bytes);
}

TEST(SerializeTest, EmptyPointSetRoundTrips) {
  const std::string bytes = EncodeSet({});
  ByteReader in(bytes);
  StatusOr<PointSet> back = TryReadPointSet(&in, "empty payload");
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->empty());
}

TEST(SerializeTest, TruncatedPointSetIsDiagnosed) {
  // Any truncation point must yield a diagnosable error, never a crash or
  // a silently short set: kDataLoss when a record is cut mid-bytes,
  // kInvalidArgument when the cut lands where a length field now lies
  // about the remaining payload.
  const std::string bytes = EncodeSet(SamplePoints());
  for (size_t cut : {bytes.size() - 1, bytes.size() / 2, size_t{9}}) {
    ByteReader in(std::string_view(bytes).substr(0, cut));
    StatusOr<PointSet> back = TryReadPointSet(&in, "truncated payload");
    ASSERT_FALSE(back.ok()) << "cut at " << cut;
    EXPECT_TRUE(back.status().code() == StatusCode::kDataLoss ||
                back.status().code() == StatusCode::kInvalidArgument)
        << "cut at " << cut << ": " << back.status().ToString();
  }
}

TEST(SerializeTest, PointCountBeyondPayloadRejectedBeforeAllocating) {
  // A count field claiming 2^56 points must be rejected against the bytes
  // actually present, not trusted into an allocation.
  std::string bytes = EncodeSet(SamplePoints());
  bytes[7] = '\x01';  // count is the leading u64 (little-endian)
  ByteReader in(bytes);
  StatusOr<PointSet> back = TryReadPointSet(&in, "huge count");
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kInvalidArgument);
}

// SamplePoints at one dim, as a request's partition section must be: the
// dense points padded with zeros to the sparse points' dim 9.
Dataset SampleRows() {
  PointSet pts = SamplePoints();
  for (Point& p : pts) {
    if (p.is_sparse()) continue;
    std::vector<float> values = p.dense_values();
    values.resize(9, 0.0f);
    p = Point::Dense(std::move(values));
  }
  return Dataset(pts);
}

TEST(SerializeTest, RowEncoderBytesEqualPointSetEncoder) {
  // The partition section is written from row views; its bytes must be
  // exactly what the PointSet encoder writes for the same points.
  PointSet dense;
  PointSet sparse;
  for (int i = 0; i < 5; ++i) {
    const float f = static_cast<float>(i);
    dense.push_back(Point::Dense({f, -f, 0.5f * f, 1e-38f}));
    sparse.push_back(Point::Sparse({1, static_cast<uint32_t>(3 + i)},
                                   {f, -0.0f}, 12));
  }
  PointSet empty_support = sparse;
  empty_support.push_back(Point::Sparse({}, {}, 12));
  empty_support.insert(empty_support.begin() + 2, Point::Sparse({}, {}, 12));
  PointSet mixed = empty_support;
  for (int i = 0; i < 3; ++i) {
    mixed.insert(mixed.begin() + 2 * i,
                 Point::Dense(std::vector<float>(12, static_cast<float>(i))));
  }
  const std::vector<std::pair<const char*, PointSet>> cases = {
      {"dense", dense},
      {"sparse", sparse},
      {"mixed", mixed},
      {"empty-support", empty_support},
      {"empty", PointSet{}},
  };
  for (const auto& [name, points] : cases) {
    const Dataset d(points);
    std::string rows;
    AppendRows(d, &rows);
    std::string reference;
    AppendPointSet(d.points(), &reference);
    EXPECT_EQ(rows, reference) << name;
    EXPECT_EQ(rows, EncodeSet(points)) << name;
    for (size_t i = 0; i < d.size(); ++i) {
      std::string one(RecordSize(d.row(i)), '\0');
      EXPECT_EQ(WriteRecord(d.row(i), one.data()), one.data() + one.size());
      std::string want;
      AppendPointRecord(points[i], &want);
      EXPECT_EQ(one, want) << name << " row " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Generalized core-set payloads.

GeneralizedCoreset SampleGen() {
  GeneralizedCoreset gen;
  gen.Add(Point::Dense({1.0f, 2.0f}), 3);
  gen.Add(Point::Sparse({2, 5}, {0.25f, -8.0f}, 6), 1);
  return gen;
}

TEST(SerializeTest, GenCoresetRoundTrips) {
  const GeneralizedCoreset gen = SampleGen();
  std::string bytes;
  AppendGenCoreset(gen, &bytes);
  ByteReader in(bytes);
  StatusOr<GeneralizedCoreset> back = TryReadGenCoreset(&in, "gen payload");
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->size(), gen.size());
  EXPECT_EQ(back->ExpandedSize(), gen.ExpandedSize());
  for (size_t e = 0; e < gen.size(); ++e) {
    EXPECT_TRUE(back->entries()[e].point == gen.entries()[e].point);
    EXPECT_EQ(back->entries()[e].multiplicity, gen.entries()[e].multiplicity);
  }
}

TEST(SerializeTest, GenCoresetZeroMultiplicityRejected) {
  // Forge an entry with multiplicity 0 (the in-memory type forbids it, so
  // build the bytes by hand): u64 count=1, u64 multiplicity=0, then any
  // valid point record.
  std::string bytes;
  GeneralizedCoreset one;
  one.Add(Point::Dense({1.0f}), 7);
  AppendGenCoreset(one, &bytes);
  for (int b = 0; b < 8; ++b) bytes[8 + b] = '\0';  // multiplicity -> 0
  ByteReader in(bytes);
  StatusOr<GeneralizedCoreset> back = TryReadGenCoreset(&in, "zero mult");
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Request / reply codecs.

WireRequest SampleRequest() {
  WireRequest req;
  req.type = WireTaskType::kCoreset;
  req.metric = "euclidean";
  req.problem = DiversityProblem::kRemoteClique;
  req.round = "coreset-l2";
  req.task = 11;
  req.attempt = 2;
  req.delay_ms = 250;
  req.k = 8;
  req.k_prime = 16;
  req.delegates = 7;
  req.extended = true;
  req.range = 0.125;
  req.part = SampleRows();
  req.gen = SampleGen();
  return req;
}

TEST(SerializeTest, RequestRoundTripsEveryField) {
  const WireRequest req = SampleRequest();
  const std::string payload = EncodeWireRequest(req);
  StatusOr<WireRequest> back = TryDecodeWireRequest(payload);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->type, req.type);
  EXPECT_EQ(back->metric, req.metric);
  EXPECT_EQ(back->problem, req.problem);
  EXPECT_EQ(back->round, req.round);
  EXPECT_EQ(back->task, req.task);
  EXPECT_EQ(back->attempt, req.attempt);
  EXPECT_EQ(back->delay_ms, req.delay_ms);
  EXPECT_EQ(back->k, req.k);
  EXPECT_EQ(back->k_prime, req.k_prime);
  EXPECT_EQ(back->delegates, req.delegates);
  EXPECT_EQ(back->extended, req.extended);
  EXPECT_EQ(back->range, req.range);
  ASSERT_EQ(back->part.size(), req.part.size());
  for (size_t i = 0; i < req.part.size(); ++i) {
    EXPECT_TRUE(back->part.RowEquals(i, req.part.point(i)));
  }
  EXPECT_EQ(back->gen.size(), req.gen.size());
  // Encode-of-decode is byte-stable.
  EXPECT_EQ(EncodeWireRequest(*back), payload);
}

TEST(SerializeTest, RequestRejectsUnknownTaskType) {
  std::string payload = EncodeWireRequest(SampleRequest());
  payload[0] = '\x2a';  // task type is the first byte
  StatusOr<WireRequest> back = TryDecodeWireRequest(payload);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kInvalidArgument);
}

// Type 3 is unassigned: the monolithic and streaming request decoders and
// the reply decoder all reject it as an unknown type.
TEST(SerializeTest, RetiredTaskTypeThreeIsInvalidArgument) {
  std::string request = EncodeWireRequest(SampleRequest());
  request[0] = '\x03';
  StatusOr<WireRequest> back = TryDecodeWireRequest(request);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(back.status().message(), "unknown wire task type 3");

  StreamingRequestDecoder decoder;
  const Status fed = decoder.Feed(std::string_view(request).substr(0, 1));
  EXPECT_EQ(fed.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(decoder.Finish().status().code(), StatusCode::kInvalidArgument);

  std::string reply = EncodeWireReply(WireReply{});
  reply[0] = '\x03';
  StatusOr<WireReply> reply_back = TryDecodeWireReply(reply);
  ASSERT_FALSE(reply_back.ok());
  EXPECT_EQ(reply_back.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(reply_back.status().message(), "unknown wire task type 3");
}

TEST(SerializeTest, RequestRejectsTrailingBytes) {
  std::string payload = EncodeWireRequest(SampleRequest());
  payload.push_back('\0');
  StatusOr<WireRequest> back = TryDecodeWireRequest(payload);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kInvalidArgument);
}

TEST(SerializeTest, RequestTruncationsAllDiagnosed) {
  const std::string payload = EncodeWireRequest(SampleRequest());
  // Every strict prefix must fail with a Status (kDataLoss or
  // kInvalidArgument), never crash or decode successfully.
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    StatusOr<WireRequest> back =
        TryDecodeWireRequest(std::string_view(payload).substr(0, cut));
    ASSERT_FALSE(back.ok()) << "prefix " << cut << " decoded";
    const StatusCode code = back.status().code();
    EXPECT_TRUE(code == StatusCode::kDataLoss ||
                code == StatusCode::kInvalidArgument)
        << "prefix " << cut << ": " << back.status().ToString();
  }
}

TEST(SerializeTest, ReplyRoundTripsOkAndError) {
  WireReply ok_reply;
  ok_reply.type = WireTaskType::kGenCoreset;
  ok_reply.gen = SampleGen();
  ok_reply.range = 2.5;
  StatusOr<WireReply> ok_back = TryDecodeWireReply(EncodeWireReply(ok_reply));
  ASSERT_TRUE(ok_back.ok());
  EXPECT_TRUE(ok_back->status.ok());
  EXPECT_EQ(ok_back->type, WireTaskType::kGenCoreset);
  EXPECT_EQ(ok_back->gen.size(), ok_reply.gen.size());
  EXPECT_EQ(ok_back->range, 2.5);

  WireReply err_reply;
  err_reply.type = WireTaskType::kSolve;
  err_reply.status = AbortedError("synthetic worker failure");
  StatusOr<WireReply> err_back =
      TryDecodeWireReply(EncodeWireReply(err_reply));
  ASSERT_TRUE(err_back.ok());
  EXPECT_EQ(err_back->status.code(), StatusCode::kAborted);
  EXPECT_EQ(err_back->status.message(), "synthetic worker failure");
}

TEST(SerializeTest, ReplyRejectsOutOfRangeStatusCode) {
  WireReply reply;
  reply.type = WireTaskType::kSolve;
  std::string payload = EncodeWireReply(reply);
  payload[1] = '\x63';  // status code byte beyond kInternal
  StatusOr<WireReply> back = TryDecodeWireReply(payload);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace diverse
