// FNV-1a hashing shared by the index trailer hash and the per-block payload
// checksums of the on-disk format. The streaming form lets the writer and
// loader hash the header and directory regions of a file while hopping
// over (never touching) the block payload bytes in between.

#ifndef FTS_COMMON_FNV_H_
#define FTS_COMMON_FNV_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace fts {

inline constexpr uint64_t kFnv1aSeed = 0xcbf29ce484222325ULL;
inline constexpr uint64_t kFnv1aPrime = 0x100000001b3ULL;

/// Folds `data` into a running FNV-1a 64 state (start from kFnv1aSeed).
inline uint64_t Fnv1aAccumulate(uint64_t state, std::string_view data) {
  for (char c : data) {
    state ^= static_cast<uint8_t>(c);
    state *= kFnv1aPrime;
  }
  return state;
}

/// One-shot FNV-1a 64 of `data`.
inline uint64_t Fnv1a64(std::string_view data) {
  return Fnv1aAccumulate(kFnv1aSeed, data);
}

/// 32-bit digest via xor-folding the 64-bit hash — the per-block payload
/// checksum of the index format (4 bytes a block keeps the skip
/// directory small while still catching any single-bit payload flip).
inline uint32_t Fnv1a32(std::string_view data) {
  const uint64_t h = Fnv1a64(data);
  return static_cast<uint32_t>(h ^ (h >> 32));
}

}  // namespace fts

#endif  // FTS_COMMON_FNV_H_
