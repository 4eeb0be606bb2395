#include "common/varint_simd.h"

#include <cstdlib>
#include <cstring>

#include "common/varint.h"

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define FTS_VARINT_SIMD_X86 1
#include <immintrin.h>
#else
#define FTS_VARINT_SIMD_X86 0
#endif

namespace fts {

bool CpuSupportsSsse3() {
#if FTS_VARINT_SIMD_X86
  return __builtin_cpu_supports("ssse3") != 0;
#else
  return false;
#endif
}

bool CpuSupportsAvx2() {
#if FTS_VARINT_SIMD_X86
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

#if FTS_VARINT_SIMD_X86

namespace {

/// Shuffle table indexed by the low 12 continuation bits of a 16-byte
/// load's movemask. Each entry gathers up to eight 1..2-byte varints into
/// eight 16-bit lanes: the low control byte selects the varint's first
/// byte, the high control byte its second byte (0x80 = none, pshufb zeroes
/// the lane). Only the 12-bit window is trusted — a varint needs its
/// terminator's continuation bit inside the mask to be decoded, so entries
/// never reference bytes 12..15 and `consumed` stays <= 12. A varint of 3+
/// bytes (two consecutive continuation bits) stops the entry early; num==0
/// then routes the first varint through the checked scalar decoder, which
/// is where the 5-byte overflow rejection lives.
struct ShuffleTable {
  alignas(16) uint8_t control[4096][16];
  uint8_t num[4096];       // varints gathered (0..8)
  uint8_t consumed[4096];  // input bytes consumed (0..12)
};

const ShuffleTable* BuildShuffleTable() {
  static const ShuffleTable* table = [] {
    auto* t = new ShuffleTable();
    for (uint32_t mask = 0; mask < 4096; ++mask) {
      std::memset(t->control[mask], 0x80, 16);
      uint8_t num = 0;
      uint8_t pos = 0;
      while (num < 8 && pos < 12) {
        if (((mask >> pos) & 1u) == 0) {  // 1-byte varint
          t->control[mask][2 * num] = pos;
          pos += 1;
        } else if (pos + 1 < 12 && ((mask >> (pos + 1)) & 1u) == 0) {
          t->control[mask][2 * num] = pos;  // 2-byte varint
          t->control[mask][2 * num + 1] = static_cast<uint8_t>(pos + 1);
          pos += 2;
        } else {
          break;  // 3+-byte varint or terminator outside the window
        }
        ++num;
      }
      t->num[mask] = num;
      t->consumed[mask] = pos;
    }
    return t;
  }();
  return table;
}

/// The 16-byte step both SIMD arms take while `i + 8 <= count` and 16
/// bytes remain: sixteen one-byte values widen straight to uint32 lanes;
/// otherwise the table gathers up to eight 1..2-byte varints, and a first
/// varint of 3+ bytes (or a malformed one) goes through the checked scalar
/// decoder. Advances `*i`; returns the pointer past what it decoded, or
/// nullptr on malformed input.
__attribute__((target("ssse3"), always_inline)) inline const uint8_t* Step16(
    const ShuffleTable* tab, const uint8_t* p, const uint8_t* limit,
    uint32_t* out, size_t* i, size_t count) {
  const __m128i zero = _mm_setzero_si128();
  const __m128i chunk = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  const uint32_t mask =
      static_cast<uint32_t>(_mm_movemask_epi8(chunk)) & 0xFFFFu;
  if (mask == 0 && *i + 16 <= count) {
    const __m128i lo = _mm_unpacklo_epi8(chunk, zero);
    const __m128i hi = _mm_unpackhi_epi8(chunk, zero);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + *i),
                     _mm_unpacklo_epi16(lo, zero));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + *i + 4),
                     _mm_unpackhi_epi16(lo, zero));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + *i + 8),
                     _mm_unpacklo_epi16(hi, zero));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + *i + 12),
                     _mm_unpackhi_epi16(hi, zero));
    *i += 16;
    return p + 16;
  }
  const uint32_t m12 = mask & 0xFFFu;
  const uint8_t num = tab->num[m12];
  if (num == 0) return GetVarint32Ptr(p, limit, &out[(*i)++]);
  const __m128i ctl =
      _mm_load_si128(reinterpret_cast<const __m128i*>(tab->control[m12]));
  const __m128i lanes = _mm_shuffle_epi8(chunk, ctl);
  // lane = b0 | b1<<8; value = (b0 & 0x7F) | (b1 << 7).
  const __m128i vals = _mm_or_si128(
      _mm_and_si128(lanes, _mm_set1_epi16(0x007F)),
      _mm_and_si128(_mm_srli_epi16(lanes, 1), _mm_set1_epi16(0x3F80)));
  // Store all 8 widened lanes (i + 8 <= count); lanes past `num` hold
  // garbage and are overwritten by the next step or the tail.
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out + *i),
                   _mm_unpacklo_epi16(vals, zero));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out + *i + 4),
                   _mm_unpackhi_epi16(vals, zero));
  *i += num;
  return p + tab->consumed[m12];
}

/// The checked scalar tail both SIMD arms finish with.
inline const uint8_t* ScalarTail(const uint8_t* p, const uint8_t* limit,
                                 uint32_t* out, size_t i, size_t count) {
  for (; i < count && p != nullptr; ++i) p = GetVarint32Ptr(p, limit, &out[i]);
  return p;
}

}  // namespace

__attribute__((target("ssse3"))) const uint8_t* GetVarint32GroupSsse3(
    const uint8_t* p, const uint8_t* limit, uint32_t* out, size_t count) {
  const ShuffleTable* tab = BuildShuffleTable();
  size_t i = 0;
  while (i + 8 <= count && limit - p >= 16) {
    if ((p = Step16(tab, p, limit, out, &i, count)) == nullptr) return nullptr;
  }
  return ScalarTail(p, limit, out, i, count);
}

__attribute__((target("avx2"))) const uint8_t* GetVarint32GroupAvx2(
    const uint8_t* p, const uint8_t* limit, uint32_t* out, size_t count) {
  const ShuffleTable* tab = BuildShuffleTable();
  size_t i = 0;
  while (i + 8 <= count && limit - p >= 16) {
    if (limit - p >= 32 && i + 32 <= count) {
      const __m256i wide =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
      if (_mm256_movemask_epi8(wide) == 0) {
        // 32 one-byte values in a row — the overwhelmingly common shape of
        // block-local deltas — widen four 8-byte lanes to uint32.
        const __m128i lo = _mm256_castsi256_si128(wide);
        const __m128i hi = _mm256_extracti128_si256(wide, 1);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                            _mm256_cvtepu8_epi32(lo));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i + 8),
                            _mm256_cvtepu8_epi32(_mm_srli_si128(lo, 8)));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i + 16),
                            _mm256_cvtepu8_epi32(hi));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i + 24),
                            _mm256_cvtepu8_epi32(_mm_srli_si128(hi, 8)));
        p += 32;
        i += 32;
        continue;
      }
    }
    if ((p = Step16(tab, p, limit, out, &i, count)) == nullptr) return nullptr;
  }
  return ScalarTail(p, limit, out, i, count);
}

#else  // !FTS_VARINT_SIMD_X86

const uint8_t* GetVarint32GroupSsse3(const uint8_t* p, const uint8_t* limit,
                                     uint32_t* out, size_t count) {
  return GetVarint32Group(p, limit, out, count);
}

const uint8_t* GetVarint32GroupAvx2(const uint8_t* p, const uint8_t* limit,
                                    uint32_t* out, size_t count) {
  return GetVarint32Group(p, limit, out, count);
}

#endif  // FTS_VARINT_SIMD_X86

namespace {

using Varint32GroupFn = const uint8_t* (*)(const uint8_t*, const uint8_t*,
                                           uint32_t*, size_t);

struct DecodeDispatch {
  DecodeArm arm;
  Varint32GroupFn fn;
};

DecodeDispatch ResolveDispatch() {
  const char* force = std::getenv("FTS_FORCE_SCALAR_DECODE");
  if (force != nullptr && force[0] == '1') {
    return {DecodeArm::kScalar, &GetVarint32Group};
  }
  if (CpuSupportsAvx2()) return {DecodeArm::kAvx2, &GetVarint32GroupAvx2};
  if (CpuSupportsSsse3()) return {DecodeArm::kSsse3, &GetVarint32GroupSsse3};
  return {DecodeArm::kScalar, &GetVarint32Group};
}

const DecodeDispatch& Dispatch() {
  static const DecodeDispatch dispatch = ResolveDispatch();
  return dispatch;
}

}  // namespace

DecodeArm ActiveDecodeArm() { return Dispatch().arm; }

const char* DecodeArmName(DecodeArm arm) {
  switch (arm) {
    case DecodeArm::kScalar:
      return "scalar";
    case DecodeArm::kSsse3:
      return "ssse3";
    case DecodeArm::kAvx2:
      return "avx2";
  }
  return "unknown";
}

const uint8_t* GetVarint32GroupAuto(const uint8_t* p, const uint8_t* limit,
                                    uint32_t* out, size_t count) {
  return Dispatch().fn(p, limit, out, count);
}

}  // namespace fts
