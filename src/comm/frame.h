// The wire-frame layer of the distributed runtime: every message between
// the driver and a worker process is one length-prefixed, checksummed
// frame, so a truncated write, a corrupted byte or a garbage peer is a
// diagnosable Status instead of a desynchronized stream.
//
// Layout (little-endian, packed):
//   magic        u32   0x44495646 ("DIVF")
//   type         u8    FrameType
//   payload_len  u64   bytes of payload that follow the header
//   payload_crc  u32   CRC-32 (IEEE 802.3) of the payload bytes
//   payload      payload_len bytes
//
// The decoder is incremental: feed it whatever bytes have arrived and it
// reports "frame complete", "need more bytes", or "malformed" (bad magic,
// impossible length, checksum mismatch). Malformed means the stream can no
// longer be trusted — the transport kills and respawns the worker rather
// than resynchronizing. Fuzzed in tests/fuzz/frame_fuzz.cc.

#ifndef DIVERSE_COMM_FRAME_H_
#define DIVERSE_COMM_FRAME_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"

namespace diverse {

/// What a frame carries.
enum class FrameType : uint8_t {
  /// Driver -> worker: one serialized wire task (comm/serialize.h).
  kRequest = 1,
  /// Worker -> driver: the serialized result (or error) of a request.
  kReply = 2,
  /// Driver -> worker: liveness probe.
  kHeartbeat = 3,
  /// Worker -> driver: liveness answer.
  kHeartbeatAck = 4,
  /// Driver -> worker: drain and exit 0.
  kShutdown = 5,
  /// Driver -> worker: one non-final slice of a chunked wire request. The
  /// worker feeds each slice to its streaming decoder as it arrives, so
  /// deserialization overlaps the remaining chunks' flight time.
  kRequestChunk = 6,
  /// Driver -> worker: the final slice of a chunked wire request; the
  /// reassembled payload is exactly one kRequest payload.
  kRequestLast = 7,
  /// Driver -> worker (tests only): sleep `param` ms (u64 payload) without
  /// reading the socket — the deterministic stalled-reader used to prove
  /// the write deadline fires instead of hanging the driver.
  kStall = 8,
};

/// One decoded frame.
struct Frame {
  FrameType type = FrameType::kRequest;
  std::string payload;
};

/// Frames larger than this are rejected as malformed before any allocation:
/// a corrupted length field must not translate into a huge buffer.
inline constexpr uint64_t kMaxFramePayload = uint64_t{1} << 30;

/// Frame header size in bytes (magic + type + payload_len + payload_crc).
inline constexpr size_t kFrameHeaderBytes = 4 + 1 + 8 + 4;

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) of `bytes`.
/// Portable slice-by-8 over compile-time tables: 8 bytes per step, the same
/// values as the byte-at-a-time table walk, no hardware CRC instruction and
/// no library dependency.
uint32_t Crc32(std::string_view bytes);

/// Appends the complete frame (header + payload) for `type` to `*out`.
void AppendFrame(FrameType type, std::string_view payload, std::string* out);

/// Incremental decode of the frame at the front of `buf`:
///   * OK with *consumed > 0  — a complete, checksum-verified frame was
///     decoded into *out; drop *consumed bytes from the front of buf.
///   * OK with *consumed == 0 — buf holds a valid prefix; read more bytes.
///   * error                  — the stream is malformed (kInvalidArgument:
///     bad magic, unknown type, payload_len > kMaxFramePayload;
///     kDataLoss: checksum mismatch). The connection cannot be re-synced.
DIVERSE_MUST_USE Status TryDecodeFrame(std::string_view buf, Frame* out,
                                       size_t* consumed);

}  // namespace diverse

#endif  // DIVERSE_COMM_FRAME_H_
