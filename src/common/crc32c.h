// CRC32C (Castagnoli, reflected polynomial 0x82F63B78): the per-block
// payload checksum and the trailer checksum of the index format
// (docs/index_format.md).
//
// Crc32cExtend runs the SSE4.2 crc32 instruction over 8-byte words where
// the CPU has it and a portable slicing-by-8 table otherwise; the choice is
// made once per process from cpuid, as the varint decode arm is
// (common/varint_simd.h). Both give the same value for every input —
// tests/crc32c_test.cc pins them to the RFC 3720 known answers and to each
// other.

#ifndef FTS_COMMON_CRC32C_H_
#define FTS_COMMON_CRC32C_H_

#include <cstdint>
#include <string_view>

namespace fts {

/// Folds `data` into `crc`, the CRC32C of the bytes before it (0 for none):
/// Crc32cExtend(Crc32c(a), b) == Crc32c(a + b).
uint32_t Crc32cExtend(uint32_t crc, std::string_view data);

/// The CRC32C of `data`.
inline uint32_t Crc32c(std::string_view data) { return Crc32cExtend(0, data); }

/// The two implementations Crc32cExtend dispatches to, exposed so the
/// known-answer test runs both. Crc32cExtendSse42 needs CpuSupportsSse42().
uint32_t Crc32cExtendPortable(uint32_t crc, std::string_view data);
uint32_t Crc32cExtendSse42(uint32_t crc, std::string_view data);

/// True when the CPU has the SSE4.2 crc32 instruction (false off x86).
bool CpuSupportsSse42();

}  // namespace fts

#endif  // FTS_COMMON_CRC32C_H_
