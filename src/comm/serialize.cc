#include "comm/serialize.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "util/check.h"

namespace diverse {

namespace {

// Scalar append/read primitives over the same raw little-endian layout the
// io.h binary records use.
template <typename T>
void AppendScalar(T v, std::string* out) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

template <typename T>
bool ReadScalar(ByteReader* in, T* out) {
  return in->Read(out, sizeof(T));
}

void AppendString(const std::string& s, std::string* out) {
  AppendScalar<uint32_t>(static_cast<uint32_t>(s.size()), out);
  out->append(s);
}

Status ReadString(ByteReader* in, std::string* out, const std::string& what) {
  uint32_t len = 0;
  if (!ReadScalar(in, &len) || len > in->remaining()) {
    return DataLossError("truncated " + what + " string");
  }
  out->resize(len);
  if (len > 0 && !in->Read(out->data(), len)) {
    return DataLossError("truncated " + what + " string");
  }
  return OkStatus();
}

constexpr uint8_t kMaxStatusCode = static_cast<uint8_t>(StatusCode::kInternal);
constexpr uint8_t kMaxProblem =
    static_cast<uint8_t>(DiversityProblem::kRemoteCycle);

// The task-type check both decoders share; 3 is unassigned.
Status CheckTaskType(uint8_t type) {
  switch (static_cast<WireTaskType>(type)) {
    case WireTaskType::kCoreset:
    case WireTaskType::kGenCoreset:
    case WireTaskType::kSolve:
    case WireTaskType::kGenSolve:
    case WireTaskType::kInstantiate:
      return OkStatus();
  }
  return InvalidArgumentError("unknown wire task type " +
                              std::to_string(type));
}

// Wire request flag bits (the u8 after the fingerprint).
constexpr uint8_t kFlagPointsByRef = 0x01;
constexpr uint8_t kFlagCacheInsert = 0x02;
constexpr uint8_t kKnownRequestFlags = kFlagPointsByRef | kFlagCacheInsert;

// splitmix64-style word mixer: 3 multiplies per 8-byte lane keeps
// FingerprintRows far cheaper than serializing the same bytes, which is
// what makes the warm-cache ship path a win and not a wash.
uint64_t MixWord(uint64_t h, uint64_t w) {
  uint64_t x = h ^ (w + 0x9E3779B97F4A7C15ULL);
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// Hashes `bytes` 8 bytes at a time (tail zero-padded into one lane).
uint64_t MixBytes(uint64_t h, const void* data, size_t bytes) {
  const char* p = static_cast<const char*>(data);
  size_t i = 0;
  for (; i + 8 <= bytes; i += 8) {
    uint64_t w;
    std::memcpy(&w, p + i, 8);
    h = MixWord(h, w);
  }
  if (i < bytes) {
    uint64_t w = 0;
    std::memcpy(&w, p + i, bytes - i);
    h = MixWord(h, w ^ (uint64_t{bytes - i} << 56));
  }
  return h;
}

// FingerprintRows in three steps, shared with the request decoder, which
// hashes each partition record as it appends it: the seed mixed with the
// row count, then each row, then the remap of 0.
uint64_t StartFingerprint(uint64_t rows) {
  return MixWord(0xD1BE45E5EED5EEDULL, rows);
}

uint64_t MixRow(uint64_t h, bool sparse, uint32_t dim, uint32_t nnz,
                const void* indices, const void* values) {
  const uint64_t header = (uint64_t{sparse ? 1u : 0u} << 48) ^
                          (uint64_t{dim} << 16) ^ uint64_t{nnz};
  h = MixWord(h, header);
  if (sparse) h = MixBytes(h, indices, nnz * sizeof(uint32_t));
  return MixBytes(h, values, nnz * sizeof(float));
}

uint64_t FinishFingerprint(uint64_t h) {
  // 0 is the "untagged" sentinel in WireRequest; remap the (2^-64) hit.
  return h == 0 ? 0x9E3779B97F4A7C15ULL : h;
}

}  // namespace

uint64_t FingerprintRows(const Dataset& rows) {
  uint64_t h = StartFingerprint(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    const kernels::VecView v = rows.row(i);
    h = MixRow(h, v.sparse, static_cast<uint32_t>(v.dim),
               static_cast<uint32_t>(v.nnz), v.indices, v.values);
  }
  return FinishFingerprint(h);
}

void AppendRows(const Dataset& rows, std::string* out) {
  // Exact size: a 9-byte header per record, 4 bytes per dense value and 8
  // per sparse (index, value) entry.
  const Dataset::SparseStats& sparse = rows.sparse_stats();
  const uint64_t count = rows.size();
  const size_t at = out->size();
  out->resize(at + sizeof(count) + rows.size() * kRecordHeaderBytes +
              (rows.size() - sparse.rows) * rows.dim() * sizeof(float) +
              sparse.total_nnz * (sizeof(uint32_t) + sizeof(float)));
  char* p = out->data() + at;
  std::memcpy(p, &count, sizeof(count));
  p += sizeof(count);
  for (size_t i = 0; i < rows.size(); ++i) p = WriteRecord(rows.row(i), p);
  DIVERSE_CHECK(p == out->data() + out->size());
}

void AppendPointSet(const PointSet& points, std::string* out) {
  AppendScalar<uint64_t>(points.size(), out);
  for (const Point& p : points) AppendPointRecord(p, out);
}

StatusOr<PointSet> TryReadPointSet(ByteReader* in, const std::string& what) {
  uint64_t count = 0;
  if (!ReadScalar(in, &count)) {
    return DataLossError("truncated " + what + " count");
  }
  if (count > in->remaining() / kRecordHeaderBytes) {
    return InvalidArgumentError(what + " claims " + std::to_string(count) +
                                " points but only " +
                                std::to_string(in->remaining()) +
                                " payload bytes remain");
  }
  PointSet points;
  points.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    StatusOr<Point> p = TryReadPointRecord(in, {"point", i, what});
    if (!p.ok()) return p.status();
    points.push_back(std::move(*p));
  }
  return points;
}

void AppendGenCoreset(const GeneralizedCoreset& gen, std::string* out) {
  AppendScalar<uint64_t>(gen.size(), out);
  for (const WeightedPoint& wp : gen.entries()) {
    AppendScalar<uint64_t>(wp.multiplicity, out);
    AppendPointRecord(wp.point, out);
  }
}

StatusOr<GeneralizedCoreset> TryReadGenCoreset(ByteReader* in,
                                               const std::string& what) {
  uint64_t count = 0;
  if (!ReadScalar(in, &count)) {
    return DataLossError("truncated " + what + " count");
  }
  if (count > in->remaining() / (sizeof(uint64_t) + kRecordHeaderBytes)) {
    return InvalidArgumentError(what + " claims " + std::to_string(count) +
                                " entries but only " +
                                std::to_string(in->remaining()) +
                                " payload bytes remain");
  }
  GeneralizedCoreset gen;
  for (uint64_t i = 0; i < count; ++i) {
    const RecordLocation where{"entry", i, what};
    uint64_t multiplicity = 0;
    if (!ReadScalar(in, &multiplicity)) {
      return DataLossError("truncated multiplicity at " + where.ToString());
    }
    if (multiplicity == 0) {
      return InvalidArgumentError("zero multiplicity at " + where.ToString());
    }
    StatusOr<Point> p = TryReadPointRecord(in, where);
    if (!p.ok()) return p.status();
    gen.Add(std::move(*p), multiplicity);
  }
  return gen;
}

std::string EncodeWireRequest(const WireRequest& request,
                              const Dataset* part_override) {
  std::string out;
  AppendScalar<uint8_t>(static_cast<uint8_t>(request.type), &out);
  AppendString(request.metric, &out);
  AppendScalar<uint8_t>(static_cast<uint8_t>(request.problem), &out);
  AppendString(request.round, &out);
  AppendScalar<uint64_t>(request.task, &out);
  AppendScalar<uint64_t>(request.attempt, &out);
  AppendScalar<uint64_t>(request.delay_ms, &out);
  AppendScalar<uint64_t>(request.k, &out);
  AppendScalar<uint64_t>(request.k_prime, &out);
  AppendScalar<uint64_t>(request.delegates, &out);
  AppendScalar<uint8_t>(request.extended ? 1 : 0, &out);
  AppendScalar<double>(request.range, &out);
  AppendScalar<uint64_t>(request.points_fingerprint, &out);
  uint8_t flags = 0;
  if (request.points_by_ref) flags |= kFlagPointsByRef;
  if (request.cache_insert) flags |= kFlagCacheInsert;
  AppendScalar<uint8_t>(flags, &out);
  AppendScalar<uint64_t>(request.evict_fingerprint, &out);
  if (!request.points_by_ref) {
    AppendRows(part_override != nullptr ? *part_override : request.part,
               &out);
  }
  AppendGenCoreset(request.gen, &out);
  return out;
}

Status StreamingRequestDecoder::Advance(bool final) {
  for (;;) {
    std::string_view rest = std::string_view(buf_).substr(pos_);
    switch (stage_) {
      case Stage::kEnvelope: {
        ByteReader in(rest);
        WireRequest req;
        uint8_t type = 0, problem = 0, extended = 0, flags = 0;
        if (!ReadScalar(&in, &type)) {
          if (final) return DataLossError("truncated wire request header");
          return OkStatus();
        }
        DIVERSE_RETURN_IF_ERROR(CheckTaskType(type));
        req.type = static_cast<WireTaskType>(type);
        // String reads distinguish "length field present but bytes still
        // in flight" (wait) from real truncation (only final can tell).
        for (auto* field : {&req.metric, &req.round}) {
          const char* what = field == &req.metric ? "metric" : "round";
          uint32_t len = 0;
          if (!ReadScalar(&in, &len) || len > in.remaining()) {
            if (final) {
              return DataLossError("truncated " + std::string(what) +
                                   " name string");
            }
            return OkStatus();
          }
          field->resize(len);
          if (len > 0 && !in.Read(field->data(), len)) {
            if (final) {
              return DataLossError("truncated " + std::string(what) +
                                   " name string");
            }
            return OkStatus();
          }
          if (field == &req.metric) {
            if (!ReadScalar(&in, &problem)) {
              if (final) {
                return DataLossError("truncated wire request problem");
              }
              return OkStatus();
            }
            if (problem > kMaxProblem) {
              return InvalidArgumentError("unknown diversity problem id " +
                                          std::to_string(problem));
            }
            req.problem = static_cast<DiversityProblem>(problem);
          }
        }
        if (!ReadScalar(&in, &req.task) || !ReadScalar(&in, &req.attempt) ||
            !ReadScalar(&in, &req.delay_ms) || !ReadScalar(&in, &req.k) ||
            !ReadScalar(&in, &req.k_prime) ||
            !ReadScalar(&in, &req.delegates) || !ReadScalar(&in, &extended) ||
            !ReadScalar(&in, &req.range) ||
            !ReadScalar(&in, &req.points_fingerprint) ||
            !ReadScalar(&in, &flags) ||
            !ReadScalar(&in, &req.evict_fingerprint)) {
          if (final) return DataLossError("truncated wire request envelope");
          return OkStatus();
        }
        if ((flags & ~kKnownRequestFlags) != 0) {
          return InvalidArgumentError("unknown wire request flags " +
                                      std::to_string(flags));
        }
        req.extended = extended != 0;
        req.points_by_ref = (flags & kFlagPointsByRef) != 0;
        req.cache_insert = (flags & kFlagCacheInsert) != 0;
        pos_ += rest.size() - in.remaining();
        req_ = std::move(req);
        have_count_ = false;
        // A by-ref request carries no points section at all.
        stage_ = req_.points_by_ref ? Stage::kGen : Stage::kPoints;
        continue;
      }
      case Stage::kPoints: {
        if (!have_count_) {
          ByteReader in(rest);
          uint64_t count = 0;
          if (!ReadScalar(&in, &count)) {
            if (final) return DataLossError("truncated request points count");
            return OkStatus();
          }
          pos_ += sizeof(uint64_t);
          have_count_ = true;
          want_ = count;
          got_ = 0;
          part_hash_ = StartFingerprint(count);
          continue;
        }
        // Validate (and hash) the complete records in the buffer, then
        // append them as one run.
        ByteReader in(rest);
        uint64_t run = 0;
        size_t dense_values = 0;
        size_t sparse_entries = 0;
        uint32_t dim = static_cast<uint32_t>(req_.part.dim());
        Status blocked = OkStatus();
        for (; got_ + run < want_; ++run) {
          const uint64_t index = got_ + run;
          if (final && want_ - index > in.remaining() / kRecordHeaderBytes) {
            return InvalidArgumentError(
                "request points claims " + std::to_string(want_) +
                " points but only " + std::to_string(in.remaining()) +
                " payload bytes remain");
          }
          // Mid-stream a short record is indistinguishable from one whose
          // tail is still in flight; only the final pass may condemn it.
          ByteReader next = in;
          StatusOr<RecordBytes> rec =
              TryDecodeRecord(&next, {"point", index, "request points"});
          if (!rec.ok()) {
            blocked = rec.status();
            break;
          }
          // A complete record whose dim differs from row 0's is certain
          // corruption, mid-stream or not.
          if (index == 0) dim = rec->dim;
          if (rec->dim != dim) {
            return RowDimMismatchError(static_cast<size_t>(index), rec->dim,
                                       dim);
          }
          (rec->sparse ? sparse_entries : dense_values) += rec->nnz;
          part_hash_ = MixRow(part_hash_, rec->sparse, rec->dim, rec->nnz,
                              rec->indices, rec->values);
          in = next;
        }
        const size_t consumed = rest.size() - in.remaining();
        if (run > 0) {
          const uint64_t have = got_ + run;
          if (have < want_) {
            // More records are in flight. The count is untrusted, so the
            // reservation is bounded by the bytes received: room for at
            // most four times the rows that have arrived, at this run's
            // mean row size. A partition of up to four chunks (1 MB at the
            // socket engine's default chunk size) is then sized once.
            const size_t extra = static_cast<size_t>(
                std::min<uint64_t>(want_ - have, 3 * have));
            req_.part.Reserve(run + extra, dense_values * (run + extra) / run,
                              sparse_entries * (run + extra) / run);
          }
          req_.part.AppendRecordRun(rest.substr(0, consumed), run,
                                    dense_values, sparse_entries);
          pos_ += consumed;
          got_ += run;
        }
        if (got_ < want_) return final ? blocked : OkStatus();
        // The partition is complete: one stamp for the whole batch.
        req_.part.Restamp();
        req_.decoded_fingerprint = FinishFingerprint(part_hash_);
        stage_ = Stage::kGen;
        have_count_ = false;
        continue;
      }
      case Stage::kGen: {
        const char* what = "request generalized core-set";
        if (!have_count_) {
          ByteReader in(rest);
          uint64_t count = 0;
          if (!ReadScalar(&in, &count)) {
            if (final) {
              return DataLossError("truncated " + std::string(what) +
                                   " count");
            }
            return OkStatus();
          }
          pos_ += sizeof(uint64_t);
          have_count_ = true;
          want_ = count;
          got_ = 0;
          continue;
        }
        if (got_ == want_) {
          stage_ = Stage::kDone;
          continue;
        }
        if (final && want_ - got_ >
                         rest.size() / (sizeof(uint64_t) +
                                        kRecordHeaderBytes)) {
          return InvalidArgumentError(
              std::string(what) + " claims " + std::to_string(want_) +
              " entries but only " + std::to_string(rest.size()) +
              " payload bytes remain");
        }
        const RecordLocation where{"entry", got_, what};
        ByteReader in(rest);
        uint64_t multiplicity = 0;
        if (!ReadScalar(&in, &multiplicity)) {
          if (final) {
            return DataLossError("truncated multiplicity at " +
                                 where.ToString());
          }
          return OkStatus();
        }
        if (multiplicity == 0) {
          // The 8 bytes are present: this is corruption, certain even
          // mid-stream.
          return InvalidArgumentError("zero multiplicity at " +
                                      where.ToString());
        }
        StatusOr<Point> p = TryReadPointRecord(&in, where);
        if (!p.ok()) {
          if (final) return p.status();
          return OkStatus();  // roll back the multiplicity read too
        }
        pos_ += rest.size() - in.remaining();
        req_.gen.Add(std::move(*p), multiplicity);
        ++got_;
        continue;
      }
      case Stage::kDone: {
        if (rest.empty()) return OkStatus();
        if (final) {
          return InvalidArgumentError(std::to_string(rest.size()) +
                                      " trailing bytes after wire request");
        }
        return OkStatus();  // Finish() rejects whatever accumulates here
      }
    }
  }
}

Status StreamingRequestDecoder::Feed(std::string_view bytes) {
  if (!error_.ok()) return error_;
  // Compact the consumed prefix before it dominates the buffer.
  if (pos_ > (size_t{1} << 20) && pos_ > buf_.size() / 2) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  buf_.append(bytes.data(), bytes.size());
  error_ = Advance(/*final=*/false);
  return error_;
}

StatusOr<WireRequest> StreamingRequestDecoder::Finish() {
  if (!error_.ok()) return error_;
  error_ = Advance(/*final=*/true);
  if (!error_.ok()) return error_;
  return std::move(req_);
}

StatusOr<WireRequest> TryDecodeWireRequest(std::string_view payload) {
  StreamingRequestDecoder decoder;
  const Status fed = decoder.Feed(payload);
  if (!fed.ok()) return fed;
  return decoder.Finish();
}

std::string EncodeWireReply(const WireReply& reply) {
  std::string out;
  AppendScalar<uint8_t>(static_cast<uint8_t>(reply.type), &out);
  AppendScalar<uint8_t>(static_cast<uint8_t>(reply.status.code()), &out);
  AppendString(reply.status.message(), &out);
  AppendScalar<double>(reply.range, &out);
  AppendScalar<uint8_t>(reply.cache_miss ? 1 : 0, &out);
  AppendPointSet(reply.points, &out);
  AppendGenCoreset(reply.gen, &out);
  return out;
}

StatusOr<WireReply> TryDecodeWireReply(std::string_view payload) {
  ByteReader in(payload);
  WireReply reply;
  uint8_t type = 0, code = 0;
  std::string message;
  if (!ReadScalar(&in, &type)) {
    return DataLossError("truncated wire reply header");
  }
  DIVERSE_RETURN_IF_ERROR(CheckTaskType(type));
  reply.type = static_cast<WireTaskType>(type);
  if (!ReadScalar(&in, &code)) {
    return DataLossError("truncated wire reply status");
  }
  if (code > kMaxStatusCode) {
    return InvalidArgumentError("unknown status code " + std::to_string(code) +
                                " in wire reply");
  }
  DIVERSE_RETURN_IF_ERROR(ReadString(&in, &message, "reply status message"));
  reply.status = code == 0 ? OkStatus()
                           : Status(static_cast<StatusCode>(code),
                                    std::move(message));
  if (!ReadScalar(&in, &reply.range)) {
    return DataLossError("truncated wire reply range");
  }
  uint8_t cache_miss = 0;
  if (!ReadScalar(&in, &cache_miss)) {
    return DataLossError("truncated wire reply cache-miss flag");
  }
  if (cache_miss > 1) {
    return InvalidArgumentError("wire reply cache-miss flag is " +
                                std::to_string(cache_miss) +
                                " (must be 0 or 1)");
  }
  reply.cache_miss = cache_miss != 0;
  StatusOr<PointSet> points = TryReadPointSet(&in, "reply points");
  if (!points.ok()) return points.status();
  reply.points = std::move(*points);
  StatusOr<GeneralizedCoreset> gen =
      TryReadGenCoreset(&in, "reply generalized core-set");
  if (!gen.ok()) return gen.status();
  reply.gen = std::move(*gen);
  if (in.remaining() != 0) {
    return InvalidArgumentError(std::to_string(in.remaining()) +
                                " trailing bytes after wire reply");
  }
  return reply;
}

}  // namespace diverse
