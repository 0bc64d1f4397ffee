// Byte-wise reference CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320)
// for differential tests of the production Crc32 (comm/frame.h).
//
// One byte per step and one polynomial shift per bit, with no table, so it
// shares no code and no precomputed state with the slice-by-8 version it
// checks.

#ifndef DIVERSE_TESTS_CRC32_REFERENCE_H_
#define DIVERSE_TESTS_CRC32_REFERENCE_H_

#include <cstdint>
#include <string_view>

namespace diverse {

inline uint32_t ReferenceCrc32(std::string_view bytes) {
  uint32_t c = 0xFFFFFFFFu;
  for (char ch : bytes) {
    c ^= static_cast<uint8_t>(ch);
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace diverse

#endif  // DIVERSE_TESTS_CRC32_REFERENCE_H_
