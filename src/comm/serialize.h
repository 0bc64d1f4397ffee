// Wire payloads of the distributed runtime: the serialized form of one
// MapReduce task (request) and its result (reply), carried inside the
// frames of comm/frame.h.
//
// Point payloads reuse the binary record format of data/io.h verbatim
// (tag, dim, nnz, raw little-endian float bytes), so a partition or
// core-set that crosses the transport decodes bit-identically — the
// property the fault-free "distributed == in-process" tests assert. A
// request's partition section is written from Dataset rows (WriteRecord)
// and decoded straight back into a Dataset (WireRequest::part), so
// neither side builds a Point per partition row.
// A request carries at most that one points section, then the generalized
// core-set; a reply's core-set or solution stays a PointSet.
// Every decoder validates through ByteReader bounds checks and returns a
// diagnosable Status on corrupt input; nothing here trusts a length field
// before checking it against the bytes actually present.

#ifndef DIVERSE_COMM_SERIALIZE_H_
#define DIVERSE_COMM_SERIALIZE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "core/dataset.h"
#include "core/diversity.h"
#include "core/generalized_coreset.h"
#include "core/point.h"
#include "data/io.h"
#include "util/status.h"

namespace diverse {

/// The compute a wire request asks a worker to perform. Each maps onto one
/// CommunicationEngine method (comm/comm.h).
enum class WireTaskType : uint8_t {
  /// GMM / GMM-EXT core-set of one partition.
  kCoreset = 1,
  /// GMM-GEN generalized core-set of one partition (+ kernel range).
  kGenCoreset = 2,
  // 3 is unassigned and decodes as unknown: renumbering would change the
  // bytes of every other task.
  /// Sequential alpha-approximation on the aggregated core-set.
  kSolve = 4,
  /// SolveSequentialGeneralized on the merged generalized core-set.
  kGenSolve = 5,
  /// Instantiate selected delegates from one partition.
  kInstantiate = 6,
};

/// One serialized task request. `round`/`task`/`attempt` echo the executor
/// envelope (error messages + reply matching); `delay_ms` > 0 instructs the
/// worker to sleep before replying (the reply-delay transport fault).
struct WireRequest {
  WireTaskType type = WireTaskType::kCoreset;
  std::string metric;  // builtin metric name (core/metric.h Name())
  DiversityProblem problem = DiversityProblem::kRemoteEdge;
  std::string round;
  uint64_t task = 0;
  uint64_t attempt = 0;
  uint64_t delay_ms = 0;

  // kCoreset: `part` = partition; k_prime, delegates, extended.
  // kGenCoreset: `part` = partition; k, k_prime.
  // kSolve: `part` = aggregated core-set; k.
  // kGenSolve: `gen` = merged generalized core-set; k.
  // kInstantiate: `gen` = selected subset, `part` = partition; `range`.
  uint64_t k = 0;
  uint64_t k_prime = 0;
  uint64_t delegates = 0;
  bool extended = false;  // GMM-EXT (delegate-augmented) vs plain GMM
  double range = 0.0;

  // Worker-side partition caching (README "Distributed runtime"). The
  // fingerprint is the content stamp of the `part` section (FingerprintRows
  // — pure content, so retries and repeated solves over one corpus key
  // identically); 0 = untagged, no cache interaction.
  uint64_t points_fingerprint = 0;
  /// The `part` section is omitted from the wire; the worker must resolve
  /// `points_fingerprint` from its partition cache (kNotFound + cache_miss
  /// reply when it cannot, and the driver falls back to a full ship).
  bool points_by_ref = false;
  /// The worker should verify the shipped `part` against the fingerprint
  /// and insert them into its cache (kDataLoss reply on a stamp mismatch).
  bool cache_insert = false;
  /// Non-zero: evict this entry from the worker cache before serving (the
  /// cache-evict fault — exercises the miss -> full-re-ship degraded path).
  uint64_t evict_fingerprint = 0;

  /// The points section, as rows. Its records must share one dim:
  /// the decoder rejects a mismatch (RowDimMismatchError).
  Dataset part;
  /// FingerprintRows(part) as the decoder computed it while appending the
  /// rows, so the worker's cache-insert check costs no second pass; 0 when
  /// the request carries no part section. Not on the wire: the encoder
  /// ignores it, and only a decoded request carries it.
  uint64_t decoded_fingerprint = 0;
  GeneralizedCoreset gen;
};

/// One serialized task reply: an embedded Status plus the type-dependent
/// result (valid only when `status` is OK).
struct WireReply {
  WireTaskType type = WireTaskType::kCoreset;
  Status status;
  /// True on a by-ref request whose fingerprint was not in the worker's
  /// partition cache (status kNotFound): the driver distinguishes "re-ship
  /// the partition inline" from a genuine task failure by this bit.
  bool cache_miss = false;
  /// kCoreset / kSolve / kInstantiate result.
  PointSet points;
  /// kGenCoreset / kGenSolve result.
  GeneralizedCoreset gen;
  /// kGenCoreset kernel range.
  double range = 0.0;
};

/// Point-set payload primitives, shared with the request/reply encoders:
/// u64 count followed by the io.h binary records.
void AppendPointSet(const PointSet& points, std::string* out);
DIVERSE_MUST_USE StatusOr<PointSet> TryReadPointSet(ByteReader* in,
                                                    const std::string& what);

/// Generalized core-set payload: u64 entry count, then per entry a u64
/// multiplicity and one point record.
void AppendGenCoreset(const GeneralizedCoreset& gen, std::string* out);
DIVERSE_MUST_USE StatusOr<GeneralizedCoreset> TryReadGenCoreset(
    ByteReader* in, const std::string& what);

/// Partition payload: the u64 row count, then the WriteRecord record of
/// each row — the bytes AppendPointSet(rows.points()) writes — through a
/// pointer into `*out`, grown once by the exact size.
void AppendRows(const Dataset& rows, std::string* out);

/// 64-bit content stamp of a partition: a word-mixed hash over the same
/// logical bytes WriteRecord serializes (tag, dim, nnz, raw
/// index/value bit patterns), plus the row count. Pure content —
/// independent of object identity, allocation, or transport — so the
/// driver computes it without serializing and the worker verifies it on
/// the decoded rows (decode is exact, so the stamps agree iff the bytes
/// survived). Never returns 0 (0 is the "untagged" sentinel in
/// WireRequest).
uint64_t FingerprintRows(const Dataset& rows);

/// Request / reply payload codecs. Decoders reject structural nonsense
/// (unknown task type, unknown metric name is left to the worker, counts
/// the payload cannot hold, truncation) with kInvalidArgument / kDataLoss.
///
/// `part_override`, when non-null, is serialized as the request's `part`
/// section in place of request.part — the driver ships a partition it does
/// not own without copying it into the WireRequest first. Ignored when
/// request.points_by_ref (no part section at all).
std::string EncodeWireRequest(const WireRequest& request,
                              const Dataset* part_override = nullptr);
DIVERSE_MUST_USE StatusOr<WireRequest> TryDecodeWireRequest(
    std::string_view payload);
std::string EncodeWireReply(const WireReply& reply);
DIVERSE_MUST_USE StatusOr<WireReply> TryDecodeWireReply(
    std::string_view payload);

/// Incremental decoder of one wire-request payload, fed the kRequestChunk /
/// kRequestLast slices as they arrive so the worker deserializes while
/// later chunks are still in flight. Feed() consumes whole records
/// greedily — it validates the complete partition records of a slice,
/// hashing each into WireRequest::decoded_fingerprint, then appends them
/// to WireRequest::part in one Dataset::AppendRecordRun — and buffers
/// only the unconsumed tail; it reports structural errors it is
/// already certain of (unknown task type, zero multiplicity, a complete
/// partition record whose dim differs from row 0's) immediately and
/// defers truncation-vs-corruption judgement to Finish(),
/// where the stream is complete and every error is final. Feeding the
/// whole payload once then calling Finish() is exactly
/// TryDecodeWireRequest (the monolithic decoder is implemented this way).
class StreamingRequestDecoder {
 public:
  /// Consumes the next slice. A non-OK return is sticky and structural;
  /// the stream cannot be trusted afterwards.
  DIVERSE_MUST_USE Status Feed(std::string_view bytes);

  /// Completes the decode; the stream must hold exactly one request.
  DIVERSE_MUST_USE StatusOr<WireRequest> Finish();

  /// Decode progress (tests pin that deserialization overlaps arrival).
  size_t points_decoded() const { return req_.part.size(); }
  size_t buffered_bytes() const { return buf_.size() - pos_; }

 private:
  enum class Stage : uint8_t { kEnvelope, kPoints, kGen, kDone };

  // Consumes as much of buf_ as possible. In `final` mode every blocked
  // parse is an error; otherwise a blocked parse waits for more bytes.
  Status Advance(bool final);

  Stage stage_ = Stage::kEnvelope;
  std::string buf_;
  size_t pos_ = 0;  // consumed prefix of buf_ (compacted as it grows)
  WireRequest req_;
  bool have_count_ = false;
  uint64_t want_ = 0;  // entries expected in the current section
  uint64_t got_ = 0;
  uint64_t part_hash_ = 0;  // FingerprintRows of the part rows so far
  Status error_;  // sticky structural error
};

}  // namespace diverse

#endif  // DIVERSE_COMM_SERIALIZE_H_
