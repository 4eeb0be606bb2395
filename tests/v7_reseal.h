// V7Resealer: recomputes the checksums of a (mutated) v7 index file so a
// crafted file reaches the structural validators behind them. Test
// support for the crafted-file suites; header-only, because every
// tests/*.cc file builds its own test binary.

#ifndef FTS_TESTS_V7_RESEAL_H_
#define FTS_TESTS_V7_RESEAL_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/crc32c.h"
#include "common/varint.h"

namespace fts {

/// Re-seals a (mutated) v7 blob: recomputes every per-block payload
/// checksum and the trailer checksum over the header/directory bytes. Both are
/// recomputable by anyone, so they only catch accidents; resealing lets a
/// mutation through to the structural validators behind them, which are
/// what must stop a crafted file. Walks the layout of
/// docs/index_format.md, copying every other byte verbatim. Returns false
/// when the bytes no longer parse far enough to reseal (the loader then
/// sees the unsealed blob, which must fail anyway).
class V7Resealer {
 public:
  explicit V7Resealer(std::string_view in) : in_(in) {}

  bool Run(std::string* sealed) {
    if (in_.size() < 16) return false;
    out_.assign(in_.substr(0, 8));  // magic
    off_ = 8;
    uint64_t cnodes, vocab, len, count;
    // Statistics: two varint64, three varint32, three doubles.
    if (!Copy(&cnodes) || !Copy() || !Copy() || !Copy() || !Copy() ||
        !CopyBytes(24)) {
      return false;
    }
    for (uint64_t n = 0; n < cnodes; ++n) {
      if (!Copy() || !CopyBytes(8)) return false;
    }
    if (!Copy(&vocab)) return false;
    for (uint64_t t = 0; t < vocab; ++t) {
      if (!Copy(&len) || !CopyBytes(len)) return false;
    }
    for (uint64_t t = 0; t <= vocab; ++t) {  // token lists, then IL_ANY
      if (!List()) return false;
    }
    // Pair section: max_distance, frequent table, keys with inline lists.
    if (!Copy() || !Copy(&count)) return false;
    for (uint64_t i = 0; i < count; ++i) {
      if (!Copy()) return false;
    }
    if (!Copy(&count)) return false;
    for (uint64_t i = 0; i < count; ++i) {
      if (!Copy() || !Copy() || !List()) return false;
    }
    if (off_ + 8 != in_.size()) return false;
    uint32_t crc = 0;
    size_t mark = 8;
    for (const auto& [begin, end] : payloads_) {
      crc = Crc32cExtend(crc, std::string_view(out_).substr(mark, begin - mark));
      mark = end;
    }
    crc = Crc32cExtend(crc, std::string_view(out_).substr(mark));
    const uint64_t trailer_value = crc;
    char trailer[8];
    std::memcpy(trailer, &trailer_value, 8);
    out_.append(trailer, 8);
    *sealed = std::move(out_);
    return true;
  }

 private:
  /// Reads one varint without copying it.
  bool Skip(uint64_t* value = nullptr) {
    uint64_t v;
    if (!GetVarint64(in_, &off_, &v).ok()) return false;
    if (value != nullptr) *value = v;
    return true;
  }

  /// Copies one varint verbatim.
  bool Copy(uint64_t* value = nullptr) {
    const size_t begin = off_;
    if (!Skip(value)) return false;
    out_.append(in_.substr(begin, off_ - begin));
    return true;
  }

  bool CopyBytes(uint64_t n) {
    if (n > in_.size() - off_) return false;
    out_.append(in_.substr(off_, n));
    off_ += n;
    return true;
  }

  /// One list: header and directory, with each block's checksum varint
  /// recomputed over the block's payload range, then the payload.
  bool List() {
    uint64_t num_blocks;
    if (!Copy() || !Copy() || !Copy() || !Copy(&num_blocks)) return false;
    struct Block {
      std::string_view head;  // max_node delta, byte_offset delta, count
      std::string_view tail;  // max_tf, encoding
      uint64_t offset;
    };
    std::vector<Block> blocks;
    uint64_t offset = 0;
    for (uint64_t b = 0; b < num_blocks; ++b) {
      const size_t head = off_;
      uint64_t d_off;
      if (!Skip() || !Skip(&d_off) || !Skip()) return false;
      const size_t head_end = off_;
      if (!Skip()) return false;  // the stale checksum
      const size_t tail = off_;
      if (!Skip() || !Skip()) return false;
      offset += d_off;
      blocks.push_back({in_.substr(head, head_end - head),
                        in_.substr(tail, off_ - tail), offset});
    }
    const size_t size_begin = off_;
    uint64_t data_size;
    if (!Skip(&data_size) || data_size > in_.size() - off_) return false;
    const std::string_view payload = in_.substr(off_, data_size);
    for (size_t b = 0; b < blocks.size(); ++b) {
      const uint64_t begin = std::min(blocks[b].offset, data_size);
      const uint64_t end = b + 1 < blocks.size()
                               ? std::min(blocks[b + 1].offset, data_size)
                               : data_size;
      out_.append(blocks[b].head);
      PutVarint32(&out_,
                  Crc32c(payload.substr(begin, end > begin ? end - begin : 0)));
      out_.append(blocks[b].tail);
    }
    out_.append(in_.substr(size_begin, off_ - size_begin));
    payloads_.emplace_back(out_.size(), out_.size() + data_size);
    out_.append(payload);
    off_ += data_size;
    return true;
  }

  std::string_view in_;
  size_t off_ = 0;
  std::string out_;
  std::vector<std::pair<size_t, size_t>> payloads_;  // [begin, end) in out_
};

/// Reseals `blob` in place when it still parses; see V7Resealer.
inline bool ResealV7(std::string* blob) {
  std::string sealed;
  if (!V7Resealer(*blob).Run(&sealed)) return false;
  *blob = std::move(sealed);
  return true;
}

}  // namespace fts

#endif  // FTS_TESTS_V7_RESEAL_H_
