// libFuzzer harness for the wire-frame decoder (comm/frame.h) and the
// task/reply payload codecs layered on it (comm/serialize.h).
//
// The incremental frame decoder fronts every byte the driver reads from a
// worker socket, so it is the distributed runtime's parsing attack
// surface: hostile bytes must come back as "need more", a verified frame,
// or a diagnosable malformed-stream Status — never a crash, hang, or
// unbounded allocation (kMaxFramePayload bounds the length field before
// any buffering). Accepted request/reply frames are additionally decoded
// by the payload codecs and, when those accept, re-encoded as a
// consistency oracle: encode(decode(bytes)) must itself decode, or the
// harness CHECK-aborts (a fuzzer finding). Every input is also hashed by
// Crc32 and by the byte-wise reference CRC (tests/crc32_reference.h), a
// differential oracle for the slice-by-8 tables and their tail handling.
//
// Build modes match tests/fuzz/io_fuzz.cc: libFuzzer under
// DIVERSE_FUZZ_LIBFUZZER, else a standalone main() that replays the
// committed corpus (tests/fuzz/frame_corpus/) as a regression test.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "comm/frame.h"
#include "comm/serialize.h"
#include "crc32_reference.h"
#include "util/check.h"

namespace {

// Streamed-decode oracle: feeding `payload` to the chunked decoder in two
// slices (split point derived from the bytes) must agree with the
// monolithic decoder — same verdict, and on acceptance the identical
// request (checked through the canonical re-encoding).
void CheckStreamingParity(std::string_view payload) {
  diverse::StatusOr<diverse::WireRequest> mono =
      diverse::TryDecodeWireRequest(payload);
  const size_t split =
      payload.empty()
          ? 0
          : (static_cast<uint8_t>(payload.back()) * 131) % payload.size();
  diverse::StreamingRequestDecoder decoder;
  // Feed errors are sticky and re-surface at Finish; ignore them here.
  (void)decoder.Feed(payload.substr(0, split));
  (void)decoder.Feed(payload.substr(split));
  diverse::StatusOr<diverse::WireRequest> streamed = decoder.Finish();
  DIVERSE_CHECK(streamed.ok() == mono.ok());
  if (mono.ok()) {
    DIVERSE_CHECK(diverse::EncodeWireRequest(*streamed) ==
                  diverse::EncodeWireRequest(*mono));
    // The fingerprint hashed during the decode is the one of the rows.
    const uint64_t want =
        mono->points_by_ref ? 0 : diverse::FingerprintRows(mono->part);
    DIVERSE_CHECK(mono->decoded_fingerprint == want);
    DIVERSE_CHECK(streamed->decoded_fingerprint == want);
  }
}

void FuzzPayload(const diverse::Frame& frame) {
  using diverse::FrameType;
  if (frame.type == FrameType::kRequest) {
    diverse::StatusOr<diverse::WireRequest> req =
        diverse::TryDecodeWireRequest(frame.payload);
    if (!req.ok()) {
      DIVERSE_CHECK(!req.status().message().empty());
      CheckStreamingParity(frame.payload);
      return;
    }
    // Accepted request: the canonical re-encoding must decode again.
    diverse::StatusOr<diverse::WireRequest> again =
        diverse::TryDecodeWireRequest(diverse::EncodeWireRequest(*req));
    DIVERSE_CHECK(again.ok());
    CheckStreamingParity(frame.payload);
  } else if (frame.type == FrameType::kReply) {
    diverse::StatusOr<diverse::WireReply> reply =
        diverse::TryDecodeWireReply(frame.payload);
    if (!reply.ok()) {
      DIVERSE_CHECK(!reply.status().message().empty());
      return;
    }
    diverse::StatusOr<diverse::WireReply> again =
        diverse::TryDecodeWireReply(diverse::EncodeWireReply(*reply));
    DIVERSE_CHECK(again.ok());
  }
}

void FuzzOne(const uint8_t* data, size_t size) {
  std::string_view buf(reinterpret_cast<const char*>(data), size);
  DIVERSE_CHECK(diverse::Crc32(buf) == diverse::ReferenceCrc32(buf));
  // A chunked request spans kRequestChunk frames closed by kRequestLast —
  // reassembled across loop iterations exactly as the worker loop does.
  diverse::StreamingRequestDecoder chunked;
  std::string chunk_bytes;
  // Drain frames from the front exactly as ReadFrameFromSocket does.
  while (true) {
    diverse::Frame frame;
    size_t consumed = 0;
    diverse::Status st = diverse::TryDecodeFrame(buf, &frame, &consumed);
    if (!st.ok()) {
      // Malformed stream: must be diagnosed, and must not claim progress.
      DIVERSE_CHECK(!st.message().empty());
      DIVERSE_CHECK(consumed == 0);
      return;
    }
    if (consumed == 0) return;  // valid prefix; a real reader waits for more
    DIVERSE_CHECK(consumed <= buf.size());
    DIVERSE_CHECK(frame.payload.size() <= diverse::kMaxFramePayload);
    // A decoded frame re-encodes to bytes the decoder accepts verbatim.
    std::string round_trip;
    diverse::AppendFrame(frame.type, frame.payload, &round_trip);
    diverse::Frame back;
    size_t back_consumed = 0;
    DIVERSE_CHECK(diverse::TryDecodeFrame(round_trip, &back, &back_consumed).ok());
    DIVERSE_CHECK(back_consumed == round_trip.size());
    DIVERSE_CHECK(back.type == frame.type);
    DIVERSE_CHECK(back.payload == frame.payload);
    FuzzPayload(frame);
    if (frame.type == diverse::FrameType::kRequestChunk) {
      (void)chunked.Feed(frame.payload);
      chunk_bytes += frame.payload;
    } else if (frame.type == diverse::FrameType::kRequestLast) {
      (void)chunked.Feed(frame.payload);
      chunk_bytes += frame.payload;
      // The reassembled chunk stream must agree with a monolithic decode
      // of the concatenated bytes.
      diverse::StatusOr<diverse::WireRequest> streamed = chunked.Finish();
      diverse::StatusOr<diverse::WireRequest> mono =
          diverse::TryDecodeWireRequest(chunk_bytes);
      DIVERSE_CHECK(streamed.ok() == mono.ok());
      if (mono.ok()) {
        DIVERSE_CHECK(diverse::EncodeWireRequest(*streamed) ==
                      diverse::EncodeWireRequest(*mono));
      }
      chunked = diverse::StreamingRequestDecoder();
      chunk_bytes.clear();
    }
    buf.remove_prefix(consumed);
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  FuzzOne(data, size);
  return 0;
}

#ifndef DIVERSE_FUZZ_LIBFUZZER
// Standalone regression driver: replays corpus files/directories given on
// the command line through FuzzOne (same contract as io_fuzz).
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <vector>

namespace {

int ReplayFile(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::cerr << "cannot open corpus file " << path << "\n";
    return 1;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string bytes = std::move(buf).str();
  FuzzOne(reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::filesystem::path> inputs;
  for (int i = 1; i < argc; ++i) {
    const std::filesystem::path arg(argv[i]);
    if (std::filesystem::is_directory(arg)) {
      for (const auto& entry : std::filesystem::directory_iterator(arg)) {
        if (entry.is_regular_file()) inputs.push_back(entry.path());
      }
    } else {
      inputs.push_back(arg);
    }
  }
  if (inputs.empty()) {
    std::cerr << "frame_fuzz: no corpus inputs given\n";
    return 1;
  }
  for (const auto& path : inputs) {
    if (ReplayFile(path) != 0) return 1;
  }
  std::cout << "frame_fuzz: replayed " << inputs.size() << " corpus inputs\n";
  return 0;
}
#endif  // DIVERSE_FUZZ_LIBFUZZER
