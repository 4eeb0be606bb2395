#include "index/run_table.h"

#include <cassert>

#include "common/varint.h"

namespace fts {

namespace {

constexpr size_t kDirEntryBytes = 4;

/// One run as its record decodes: the absolute offset, sentence and
/// paragraph.
struct Run {
  uint32_t offset = 0;
  uint32_t sentence = 0;
  uint32_t paragraph = 0;
};

/// Decodes the record at `p` onto `run` (its predecessor); nullptr on
/// malformed bytes. `*increasing` says whether the new offset lies past
/// the predecessor's without wrapping, as every run but a node's first
/// must.
const uint8_t* NextRun(const uint8_t* p, const uint8_t* lim, Run* run,
                       bool* increasing) {
  uint32_t d_off, d_sent, d_para;
  if ((p = GetVarint32Ptr(p, lim, &d_off)) == nullptr ||
      (p = GetVarint32Ptr(p, lim, &d_sent)) == nullptr ||
      (p = GetVarint32Ptr(p, lim, &d_para)) == nullptr) {
    return nullptr;
  }
  *increasing = d_off != 0 && uint64_t{run->offset} + d_off <= UINT32_MAX;
  run->offset += d_off;
  run->sentence += d_sent;
  run->paragraph += d_para;
  return p;
}

/// Largest records section whose one-byte runs keep every node's offsets
/// within 32 bits: each record adds at most 127 to the offset.
constexpr size_t kMaxOneByteRecordBytes = 3 * (UINT32_MAX / 127);

/// True when no byte of `bytes` has its high bit set: every varint in them
/// is one byte long.
bool AllOneByte(const uint8_t* bytes, size_t size) {
  uint8_t high = 0;
  for (size_t i = 0; i < size; ++i) high |= bytes[i];
  return (high & 0x80) == 0;
}

/// The number of records of one-byte runs (byte triples, every byte below
/// 0x80) whose offset difference is zero. Eight records at a time: three
/// little-endian words hold 24 bytes, a byte b is zero exactly when b +
/// 0x7f leaves its high bit clear (no byte carries into the next), and
/// kFirst picks the high bits of the bytes that open a record. Each
/// counter byte of `acc` gains at most one per group, so it is folded
/// before it can reach 256.
size_t ZeroSteps(const uint8_t* records, size_t size) {
  constexpr uint64_t kLow7 = 0x7f7f7f7f7f7f7f7full;
  constexpr uint64_t kFirst[3] = {0x0080000080000080ull, 0x8000008000008000ull,
                                  0x0000800000800000ull};
  constexpr uint64_t kEvenBytes = 0x00ff00ff00ff00ffull;
  size_t zeros = 0, i = 0;
  while (i + 24 <= size) {
    uint64_t acc = 0;
    for (int k = 0; k < 255 && i + 24 <= size; ++k, i += 24) {
      acc += ((~(LoadFixed64Le(records + i) + kLow7) & kFirst[0]) |
              (~(LoadFixed64Le(records + i + 8) + kLow7) & kFirst[1]) |
              (~(LoadFixed64Le(records + i + 16) + kLow7) & kFirst[2])) >>
             7;
    }
    const uint64_t pairs = (acc & kEvenBytes) + ((acc >> 8) & kEvenBytes);
    zeros += (pairs * 0x0001000100010001ull) >> 48;
  }
  for (; i < size; i += 3) zeros += records[i] == 0;
  return zeros;
}

}  // namespace

uint32_t RunTable::Dir(size_t i) const {
  return LoadFixed32Le(bytes_.data() + i * kDirEntryBytes);
}

StatusOr<RunTable> RunTable::FromBytes(std::string_view bytes, uint64_t num_nodes) {
  if (num_nodes >= bytes.size() / kDirEntryBytes) {
    return Status::Corruption("run table directory larger than its section");
  }
  RunTable table;
  table.bytes_ = bytes;
  table.num_nodes_ = num_nodes;
  const size_t records_begin = (num_nodes + 1) * kDirEntryBytes;
  const size_t records_size = bytes.size() - records_begin;
  const uint8_t* const records =
      reinterpret_cast<const uint8_t*>(bytes.data()) + records_begin;
  if (table.Dir(0) != 0 || table.Dir(num_nodes) != records_size) {
    return Status::Corruption("run table directory entry out of range");
  }
  // The common table holds one-byte varints alone. Its records are then
  // byte triples, each node's a whole number of them, and a zero offset
  // difference is legal only in a node's first run: the table is valid
  // when its zero differences are exactly those. Checked by one pass over
  // the bytes, one over the directory and one over the records' first
  // bytes; any other table is walked record by record.
  const bool one_byte = records_size <= kMaxOneByteRecordBytes &&
                        AllOneByte(records, records_size);
  size_t first_zero_steps = 0;
  for (uint64_t n = 0; n < num_nodes; ++n) {
    const uint32_t begin = table.Dir(n), end = table.Dir(n + 1);
    if (end < begin || end > records_size) {
      return Status::Corruption("run table directory entry out of range");
    }
    if (one_byte) {
      if ((end - begin) % 3 != 0) {
        return Status::Corruption("malformed run table record");
      }
      first_zero_steps += begin != end && records[begin] == 0;
      continue;
    }
    const uint8_t* p = records + begin;
    const uint8_t* const lim = records + end;
    Run run;
    for (bool first = true; p != lim; first = false) {
      bool increasing;
      if ((p = NextRun(p, lim, &run, &increasing)) == nullptr) {
        return Status::Corruption("malformed run table record");
      }
      if (!first && !increasing) {
        return Status::Corruption("run offsets not increasing");
      }
    }
  }
  if (one_byte && ZeroSteps(records, records_size) != first_zero_steps) {
    return Status::Corruption("run offsets not increasing");
  }
  return table;
}

void RunTable::EncodeRuns(std::span<const PositionInfo> positions,
                          std::vector<uint8_t>* out) {
  uint8_t buf[3 * kMaxVarint32Bytes];
  Run prev;
  bool first = true;
  for (const PositionInfo& pos : positions) {
    if (!first && pos.sentence == prev.sentence && pos.paragraph == prev.paragraph) {
      continue;
    }
    uint8_t* p = EncodeVarint32(buf, pos.offset - prev.offset);
    p = EncodeVarint32(p, pos.sentence - prev.sentence);
    p = EncodeVarint32(p, pos.paragraph - prev.paragraph);
    out->insert(out->end(), buf, p);
    prev = {pos.offset, pos.sentence, pos.paragraph};
    first = false;
  }
}

std::string_view RunTable::NodeRuns(NodeId node) const {
  if (node >= num_nodes_) return {};
  const size_t records_begin = (num_nodes_ + 1) * kDirEntryBytes;
  const uint32_t begin = Dir(node);
  return bytes_.substr(records_begin + begin, Dir(node + 1) - begin);
}

void RunTable::Fill(NodeId node, std::span<PositionInfo> positions) const {
  const std::string_view runs = NodeRuns(node);
  const uint8_t* p = reinterpret_cast<const uint8_t*>(runs.data());
  const uint8_t* const lim = p + runs.size();
  Run cur;   // the run the current position falls in; (0, 0) before the first
  Run next;  // the run after it, when has_next
  // Decodes the record at p onto `next`; a validated table's common
  // record, three one-byte varints, is read in place.
  const auto advance = [&] {
    if (lim - p >= 3 && ((p[0] | p[1] | p[2]) & 0x80) == 0) {
      next.offset += p[0];
      next.sentence += p[1];
      next.paragraph += p[2];
      p += 3;
      return true;
    }
    bool increasing;
    return p != lim && (p = NextRun(p, lim, &next, &increasing)) != nullptr;
  };
  bool has_next = advance();
  for (PositionInfo& pos : positions) {
    while (has_next && next.offset <= pos.offset) {
      cur = next;
      has_next = advance();
    }
    pos.sentence = cur.sentence;
    pos.paragraph = cur.paragraph;
  }
}

RunTableWriter::RunTableWriter(size_t nodes, size_t record_bytes)
    : nodes_(nodes) {
  bytes_.reserve((nodes + 1) * kDirEntryBytes + record_bytes);
  bytes_.resize((nodes + 1) * kDirEntryBytes);  // dir[0] = 0
}

void RunTableWriter::AddNode(std::string_view runs) {
  assert(added_ < nodes_);
  bytes_.insert(bytes_.end(), runs.begin(), runs.end());
  StoreFixed32Le(bytes_.data() + ++added_ * kDirEntryBytes,
                 static_cast<uint32_t>(bytes_.size() - (nodes_ + 1) * kDirEntryBytes));
}

RunTable RunTableWriter::Finish() {
  assert(added_ == nodes_);
  RunTable table;
  table.num_nodes_ = nodes_;
  table.owned_ = std::move(bytes_);
  table.bytes_ = {reinterpret_cast<const char*>(table.owned_.data()),
                  table.owned_.size()};
  bytes_ = {};
  nodes_ = added_ = 0;
  return table;
}

}  // namespace fts
