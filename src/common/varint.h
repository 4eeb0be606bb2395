// Integer coding of the on-disk inverted index format: LEB128-style
// variable-length integers and little-endian fixed-width 64-bit words.
// Posting lists store node ids and position offsets as deltas, so most
// values fit in one or two bytes.
//
// Two decode tiers are provided. The Status-returning GetVarint* functions
// are the convenient form used on cold paths (index load framing, skip
// tables). The pointer-based GetVarint32Ptr / GetVarint32Group family is
// the hot-path form used by the bulk block decoder: one-byte values decode
// inline with a single branch, the multi-byte tail is an out-of-line
// unrolled loop, and malformed input (truncation, >32-bit value) is
// reported as a null pointer instead of a Status allocation.

#ifndef FTS_COMMON_VARINT_H_
#define FTS_COMMON_VARINT_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "common/status.h"

namespace fts {

/// Largest varint32 encoding.
constexpr size_t kMaxVarint32Bytes = 5;

/// Appends `value` to `out` as an unsigned LEB128 varint (1..10 bytes).
void PutVarint64(std::string* out, uint64_t value);

/// Writes `value` as a 32-bit varint (1..5 bytes) at `out`, which has room
/// for kMaxVarint32Bytes; returns the byte after it.
inline uint8_t* EncodeVarint32(uint8_t* out, uint32_t value) {
  while (value >= 0x80) {
    *out++ = static_cast<uint8_t>(value | 0x80);
    value >>= 7;
  }
  *out++ = static_cast<uint8_t>(value);
  return out;
}

/// Appends `value` as a 32-bit varint to a byte container (std::string,
/// PageBytes).
template <typename Bytes>
void PutVarint32(Bytes* out, uint32_t value) {
  uint8_t buf[kMaxVarint32Bytes];
  const char* begin = reinterpret_cast<const char*>(buf);
  out->insert(out->end(), begin,
              reinterpret_cast<const char*>(EncodeVarint32(buf, value)));
}

/// The little-endian 64-bit word at `p` (unaligned), whatever the host's
/// byte order: bitset words, doubles and the trailer are stored this way,
/// so files are byte-identical across hosts.
inline uint64_t LoadFixed64Le(const void* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) v = __builtin_bswap64(v);
  return v;
}

/// Appends `value` to a byte container as a little-endian 64-bit word.
template <typename Bytes>
void PutFixed64Le(Bytes* out, uint64_t value) {
  if constexpr (std::endian::native == std::endian::big) {
    value = __builtin_bswap64(value);
  }
  char buf[sizeof(value)];
  std::memcpy(buf, &value, sizeof(value));
  out->insert(out->end(), buf, buf + sizeof(value));
}

/// Decodes a varint from `data` starting at `*offset`, advancing `*offset`
/// past the encoded bytes. Returns Corruption if the input is truncated or
/// the encoding exceeds 10 bytes. Taking a string_view lets the index
/// loader parse borrowed buffers (an mmap'd file region) without copying.
Status GetVarint64(std::string_view data, size_t* offset, uint64_t* value);

/// 32-bit variant of GetVarint64; fails on values that overflow 32 bits.
Status GetVarint32(std::string_view data, size_t* offset, uint32_t* value);

/// Out-of-line continuation of GetVarint32Ptr for multi-byte values: an
/// unrolled decode of up to 5 bytes. Returns the pointer past the varint,
/// or nullptr on truncated input / values that overflow 32 bits.
const uint8_t* GetVarint32PtrFallback(const uint8_t* p, const uint8_t* limit,
                                      uint32_t* value);

/// Hot-path decode of one varint32 from [p, limit). One-byte values (the
/// overwhelmingly common case for block-local deltas) take a single inline
/// branch. Returns the pointer past the varint, or nullptr on malformed
/// input (truncation, overflow past 32 bits).
inline const uint8_t* GetVarint32Ptr(const uint8_t* p, const uint8_t* limit,
                                     uint32_t* value) {
  if (p < limit) {
    const uint32_t result = *p;
    if ((result & 0x80) == 0) {
      *value = result;
      return p + 1;
    }
  }
  return GetVarint32PtrFallback(p, limit, value);
}

/// Group decode of `count` varint32s from [p, limit) into out[0..count).
/// While at least four maximal-width varints' worth of bytes remain, the
/// inner loop decodes four values per iteration without per-byte limit
/// checks (the word-at-a-time fast path of the bulk block decoder); the
/// tail falls back to the checked decoder. Returns the pointer past the
/// last varint, or nullptr on malformed input.
const uint8_t* GetVarint32Group(const uint8_t* p, const uint8_t* limit,
                                uint32_t* out, size_t count);

}  // namespace fts

#endif  // FTS_COMMON_VARINT_H_
