#include "common/varint.h"

#include <limits>

namespace fts {

void PutVarint64(std::string* out, uint64_t value) {
  while (value >= 0x80) {
    out->push_back(static_cast<char>((value & 0x7F) | 0x80));
    value >>= 7;
  }
  out->push_back(static_cast<char>(value));
}

Status GetVarint64(std::string_view data, size_t* offset, uint64_t* value) {
  uint64_t result = 0;
  int shift = 0;
  size_t pos = *offset;
  while (true) {
    if (pos >= data.size()) {
      return Status::Corruption("truncated varint at offset " + std::to_string(*offset));
    }
    if (shift >= 64) {
      return Status::Corruption("varint too long at offset " + std::to_string(*offset));
    }
    uint8_t byte = static_cast<uint8_t>(data[pos++]);
    result |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) break;
    shift += 7;
  }
  *offset = pos;
  *value = result;
  return Status::OK();
}

Status GetVarint32(std::string_view data, size_t* offset, uint32_t* value) {
  uint64_t wide = 0;
  FTS_RETURN_IF_ERROR(GetVarint64(data, offset, &wide));
  if (wide > std::numeric_limits<uint32_t>::max()) {
    return Status::Corruption("varint32 overflow at offset " + std::to_string(*offset));
  }
  *value = static_cast<uint32_t>(wide);
  return Status::OK();
}

const uint8_t* GetVarint32PtrFallback(const uint8_t* p, const uint8_t* limit,
                                      uint32_t* value) {
  uint32_t result = 0;
  for (uint32_t shift = 0; shift <= 28 && p < limit; shift += 7) {
    const uint32_t byte = *p++;
    if (byte & 0x80) {
      // The fifth byte carries bits 28..31 plus a continuation flag; either
      // a set flag or payload bits above bit 31 means the value overflows
      // 32 bits (the encoder never emits such sequences for uint32_t).
      if (shift == 28) return nullptr;
      result |= (byte & 0x7F) << shift;
    } else {
      if (shift == 28 && byte > 0x0F) return nullptr;
      result |= byte << shift;
      *value = result;
      return p;
    }
  }
  return nullptr;  // truncated
}

namespace {

/// Decodes one varint32 with no limit checks: the caller has proven at
/// least 5 readable bytes remain. Overlong (>5 byte) encodings still fail.
inline const uint8_t* GetVarint32Unchecked(const uint8_t* p, uint32_t* value) {
  uint32_t byte = *p;
  if ((byte & 0x80) == 0) {  // 1 byte: block-local deltas live here
    *value = byte;
    return p + 1;
  }
  uint32_t result = byte & 0x7F;
  byte = p[1];
  if ((byte & 0x80) == 0) {  // 2 bytes
    *value = result | (byte << 7);
    return p + 2;
  }
  result |= (byte & 0x7F) << 7;
  byte = p[2];
  if ((byte & 0x80) == 0) {
    *value = result | (byte << 14);
    return p + 3;
  }
  result |= (byte & 0x7F) << 14;
  byte = p[3];
  if ((byte & 0x80) == 0) {
    *value = result | (byte << 21);
    return p + 4;
  }
  result |= (byte & 0x7F) << 21;
  byte = p[4];
  if ((byte & 0x80) != 0 || byte > 0x0F) return nullptr;  // overflow
  *value = result | (byte << 28);
  return p + 5;
}

}  // namespace

const uint8_t* GetVarint32Group(const uint8_t* p, const uint8_t* limit,
                                uint32_t* out, size_t count) {
  size_t i = 0;
  // Unrolled fast loop: four unchecked decodes per iteration as long as
  // even four maximal-width varints cannot run past `limit`.
  while (i + 4 <= count &&
         limit - p >= static_cast<std::ptrdiff_t>(4 * kMaxVarint32Bytes)) {
    p = GetVarint32Unchecked(p, &out[i]);
    if (p == nullptr) return nullptr;
    p = GetVarint32Unchecked(p, &out[i + 1]);
    if (p == nullptr) return nullptr;
    p = GetVarint32Unchecked(p, &out[i + 2]);
    if (p == nullptr) return nullptr;
    p = GetVarint32Unchecked(p, &out[i + 3]);
    if (p == nullptr) return nullptr;
    i += 4;
  }
  for (; i < count; ++i) {
    p = GetVarint32Ptr(p, limit, &out[i]);
    if (p == nullptr) return nullptr;
  }
  return p;
}

}  // namespace fts
