#include "common/crc32c.h"

#include <array>
#include <cstddef>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define FTS_CRC32C_X86 1
#include <nmmintrin.h>
#else
#define FTS_CRC32C_X86 0
#endif

namespace fts {
namespace {

/// table[k][b]: the CRC of byte b followed by k zero bytes, so eight table
/// lookups fold one 8-byte word (slicing-by-8).
using SliceTable = std::array<std::array<uint32_t, 256>, 8>;

constexpr SliceTable MakeSliceTable() {
  SliceTable table{};
  for (uint32_t b = 0; b < 256; ++b) {
    uint32_t crc = b;
    for (int bit = 0; bit < 8; ++bit) crc = (crc >> 1) ^ (0x82F63B78u & (0u - (crc & 1u)));
    table[0][b] = crc;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (uint32_t b = 0; b < 256; ++b) {
      const uint32_t prev = table[k - 1][b];
      table[k][b] = (prev >> 8) ^ table[0][prev & 0xFF];
    }
  }
  return table;
}

constexpr SliceTable kSliceTable = MakeSliceTable();

/// The little-endian 32-bit word at p.
uint32_t Load32(const uint8_t* p) {
  return uint32_t{p[0]} | uint32_t{p[1]} << 8 | uint32_t{p[2]} << 16 | uint32_t{p[3]} << 24;
}

}  // namespace

uint32_t Crc32cExtendPortable(uint32_t crc, std::string_view data) {
  const SliceTable& t = kSliceTable;
  const auto* p = reinterpret_cast<const uint8_t*>(data.data());
  size_t n = data.size();
  crc = ~crc;
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = Load32(p) ^ crc;
    const uint32_t hi = Load32(p + 4);
    crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
          t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
          t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) crc = (crc >> 8) ^ t[0][(crc ^ *p) & 0xFF];
  return ~crc;
}

#if FTS_CRC32C_X86

bool CpuSupportsSse42() { return __builtin_cpu_supports("sse4.2") != 0; }

__attribute__((target("sse4.2"))) uint32_t Crc32cExtendSse42(uint32_t crc,
                                                             std::string_view data) {
  const auto* p = reinterpret_cast<const uint8_t*>(data.data());
  size_t n = data.size();
  uint64_t crc64 = ~crc;
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t word;
    std::memcpy(&word, p, 8);
    crc64 = _mm_crc32_u64(crc64, word);
  }
  auto crc32 = static_cast<uint32_t>(crc64);
  for (; n > 0; ++p, --n) crc32 = _mm_crc32_u8(crc32, *p);
  return ~crc32;
}

#else  // !FTS_CRC32C_X86

bool CpuSupportsSse42() { return false; }

uint32_t Crc32cExtendSse42(uint32_t crc, std::string_view data) {
  return Crc32cExtendPortable(crc, data);
}

#endif  // FTS_CRC32C_X86

uint32_t Crc32cExtend(uint32_t crc, std::string_view data) {
  using Crc32cFn = uint32_t (*)(uint32_t, std::string_view);
  static const Crc32cFn fn =
      CpuSupportsSse42() ? &Crc32cExtendSse42 : &Crc32cExtendPortable;
  return fn(crc, data);
}

}  // namespace fts
