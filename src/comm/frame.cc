#include "comm/frame.h"

#include <array>
#include <bit>
#include <cstdio>
#include <cstring>

namespace diverse {

namespace {

constexpr uint32_t kFrameMagic = 0x44495646;  // "DIVF"

// Slice-by-8 tables (Kounavis & Berry, 2005) for the reflected polynomial
// 0xEDB88320: kCrcTables[0] is the byte-at-a-time table, and
// kCrcTables[k][b] is the CRC of byte b followed by k zero bytes, so one
// step folds 8 input bytes with 8 independent lookups.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

constexpr CrcTables BuildCrcTables() {
  CrcTables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (size_t k = 1; k < t.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr CrcTables kCrcTables = BuildCrcTables();

bool KnownFrameType(uint8_t t) {
  return t >= static_cast<uint8_t>(FrameType::kRequest) &&
         t <= static_cast<uint8_t>(FrameType::kStall);
}

}  // namespace

uint32_t Crc32(std::string_view bytes) {
  // The 8-byte step reads its words in host order; the wire is
  // little-endian, like every other raw scalar in the codecs.
  static_assert(std::endian::native == std::endian::little);
  const CrcTables& t = kCrcTables;
  const char* p = bytes.data();
  size_t n = bytes.size();
  uint32_t c = 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    uint32_t lo;
    uint32_t hi;
    std::memcpy(&lo, p, sizeof(lo));
    std::memcpy(&hi, p + 4, sizeof(hi));
    lo ^= c;
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    c = t[0][(c ^ static_cast<uint8_t>(*p)) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

void AppendFrame(FrameType type, std::string_view payload, std::string* out) {
  const uint32_t magic = kFrameMagic;
  const uint8_t t = static_cast<uint8_t>(type);
  const uint64_t len = payload.size();
  const uint32_t crc = Crc32(payload);
  out->append(reinterpret_cast<const char*>(&magic), sizeof(magic));
  out->append(reinterpret_cast<const char*>(&t), sizeof(t));
  out->append(reinterpret_cast<const char*>(&len), sizeof(len));
  out->append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  out->append(payload.data(), payload.size());
}

Status TryDecodeFrame(std::string_view buf, Frame* out, size_t* consumed) {
  *consumed = 0;
  if (buf.size() < kFrameHeaderBytes) return OkStatus();
  uint32_t magic;
  uint8_t type;
  uint64_t len;
  uint32_t crc;
  const char* p = buf.data();
  std::memcpy(&magic, p, sizeof(magic));
  p += sizeof(magic);
  std::memcpy(&type, p, sizeof(type));
  p += sizeof(type);
  std::memcpy(&len, p, sizeof(len));
  p += sizeof(len);
  std::memcpy(&crc, p, sizeof(crc));
  p += sizeof(crc);
  if (magic != kFrameMagic) {
    char hex[16];
    std::snprintf(hex, sizeof(hex), "0x%08X", magic);
    return InvalidArgumentError("bad frame magic " + std::string(hex) +
                                " (want DIVF)");
  }
  if (!KnownFrameType(type)) {
    return InvalidArgumentError("unknown frame type " + std::to_string(type));
  }
  if (len > kMaxFramePayload) {
    return InvalidArgumentError("frame payload length " + std::to_string(len) +
                                " exceeds the " +
                                std::to_string(kMaxFramePayload) +
                                "-byte limit");
  }
  if (buf.size() - kFrameHeaderBytes < len) return OkStatus();  // need more
  std::string_view payload(p, static_cast<size_t>(len));
  const uint32_t actual = Crc32(payload);
  if (actual != crc) {
    return DataLossError("frame checksum mismatch (header says " +
                         std::to_string(crc) + ", payload hashes to " +
                         std::to_string(actual) + ")");
  }
  out->type = static_cast<FrameType>(type);
  out->payload.assign(payload.data(), payload.size());
  *consumed = kFrameHeaderBytes + static_cast<size_t>(len);
  return OkStatus();
}

}  // namespace diverse
