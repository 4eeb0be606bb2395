#include "index/block_posting_list.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <iterator>

#include "common/crc32c.h"
#include "common/varint.h"
#include "common/varint_simd.h"
#include "index/decoded_block_cache.h"
#include "index/index_source.h"
#include "index/run_table.h"
#include "index/tombstone_set.h"

namespace fts {

namespace {

void AppendBytes(PageBytes* out, const void* bytes, size_t n) {
  const char* p = static_cast<const char*>(bytes);
  out->insert(out->end(), p, p + n);
}

/// True when [p, lim) holds exactly `n` varint32s as GetVarint32Ptr reads
/// them (first touch's position framing walk), keeping no value.
bool HoldsVarint32s(const uint8_t* p, const uint8_t* const lim, uint64_t n) {
  uint32_t v;
  for (; n > 0; --n) {
    if ((p = GetVarint32Ptr(p, lim, &v)) == nullptr) return false;
  }
  return p == lim;
}

std::atomic<bool>& DenseBlocksDefaultFlag() {
  static std::atomic<bool> flag{true};
  return flag;
}

}  // namespace

bool BlockPostingList::DenseBlocksEnabledByDefault() {
  return DenseBlocksDefaultFlag().load(std::memory_order_relaxed);
}

bool BlockPostingList::SetDenseBlocksEnabledByDefault(bool enabled) {
  return DenseBlocksDefaultFlag().exchange(enabled, std::memory_order_relaxed);
}

void BlockListWriter::EncodePositions(std::span<const PositionInfo> positions,
                                      std::vector<uint8_t>* out) {
  const size_t begin = out->size();
  out->resize(begin + positions.size() * kMaxVarint32Bytes);
  uint8_t* p = out->data() + begin;
  uint32_t prev = 0;
  for (const PositionInfo& pos : positions) {
    p = EncodeVarint32(p, pos.offset - prev);
    prev = pos.offset;
  }
  out->resize(p - out->data());
}

void BlockListWriter::EncodeRecords(std::span<const PairRecord> records,
                                    std::vector<uint8_t>* out) {
  const size_t begin = out->size();
  out->resize(begin + records.size() * 2 * kMaxVarint32Bytes);
  uint8_t* p = out->data() + begin;
  uint32_t prev = 0;
  for (const PairRecord& r : records) {
    p = EncodeVarint32(p, r.first - prev);
    p = EncodeVarint32(p, r.second);
    prev = r.first;
  }
  out->resize(p - out->data());
}

void BlockListWriter::Append(NodeId node, std::span<const PositionInfo> positions) {
  assert(lanes_ == 1);
  const size_t begin = pending_bytes_.size();
  EncodePositions(positions, &pending_bytes_);
  AppendPending(node, static_cast<uint32_t>(positions.size()), begin);
}

void BlockListWriter::AppendEncoded(NodeId node, uint32_t pos_count,
                                    std::string_view pos_bytes) {
  const size_t begin = pending_bytes_.size();
  pending_bytes_.insert(pending_bytes_.end(), pos_bytes.begin(), pos_bytes.end());
  AppendPending(node, pos_count, begin);
}

void BlockListWriter::AppendPending(NodeId node, uint32_t pos_count,
                                    size_t byte_begin) {
  assert(pending_.empty() || pending_.back().node < node);
  assert(skips_.empty() || !pending_.empty() || skips_.back().max_node < node);
  pending_.push_back({node, pos_count, static_cast<uint32_t>(byte_begin),
                      static_cast<uint32_t>(pending_bytes_.size() - byte_begin)});
  ++num_entries_;
  total_positions_ += pos_count;
  if (pending_.size() >= block_size_) FlushPending();
}

void BlockListWriter::FlushPending() {
  if (pending_.empty()) return;
  BlockPostingList::SkipEntry skip;
  skip.max_node = pending_.back().node;
  skip.byte_offset = static_cast<uint32_t>(payload_.size());
  skip.entry_count = static_cast<uint32_t>(pending_.size());
  for (const PendingEntry& e : pending_) {
    skip.max_tf = std::max(skip.max_tf, e.pos_count);
  }

  // Dense classification: a block whose ids cover at least a quarter of
  // their span stores one bit per id in that span cheaper than one-byte
  // deltas would, and — the real prize — intersects against another dense
  // block with word ANDs instead of entry-at-a-time seeks.
  const uint64_t span =
      static_cast<uint64_t>(skip.max_node) - pending_.front().node + 1;
  if (dense_enabled_ && pending_.size() >= BlockPostingList::kMinDenseEntries &&
      span <= uint64_t{BlockPostingList::kDenseSpanFactor} * pending_.size()) {
    FlushPendingBitset(&skip);
  } else {
    // First node of the block is absolute so blocks decode independently;
    // subsequent ids are strictly positive deltas. Each entry's position
    // bytes sit behind their byte length so header-only decoding can hop
    // over them.
    NodeId prev_node = 0;
    bool first = true;
    for (const PendingEntry& e : pending_) {
      PutVarint32(&payload_, first ? e.node : e.node - prev_node);
      first = false;
      prev_node = e.node;
      PutVarint32(&payload_, e.pos_count);
      PutVarint32(&payload_, e.pos_byte_len);
      AppendBytes(&payload_, pending_bytes_.data() + e.pos_byte_begin, e.pos_byte_len);
    }
  }
  skips_.push_back(skip);
  pending_.clear();
  pending_bytes_.clear();
}

void BlockListWriter::FlushPendingBitset(BlockPostingList::SkipEntry* skip) {
  // Bitset block layout:
  //   base varint        absolute first node id (bit 0 is always set)
  //   nwords varint      number of 64-bit bitset words
  //   words              nwords little-endian uint64, bit i = id base+i
  //   counts             entry_count varints (per-entry position counts)
  //   pos_lens           entry_count varints (per-entry position byte len)
  //   pos bytes          concatenated per-entry position deltas
  // The count and length streams are contiguous — unlike the interleaved
  // sparse layout — so DecodeBlockEntries runs them through the dispatched
  // (SIMD-capable) group decoder in bulk.
  skip->encoding = BlockPostingList::kEncodingBitset;
  const NodeId base = pending_.front().node;
  const uint64_t span = static_cast<uint64_t>(skip->max_node) - base + 1;
  const uint32_t nwords = static_cast<uint32_t>((span + 63) / 64);
  PutVarint32(&payload_, base);
  PutVarint32(&payload_, nwords);
  std::vector<uint64_t> words(nwords, 0);
  for (const PendingEntry& e : pending_) {
    const uint64_t bit = e.node - base;
    words[bit >> 6] |= uint64_t{1} << (bit & 63);
  }
  for (uint32_t w = 0; w < nwords; ++w) PutFixed64Le(&payload_, words[w]);
  for (const PendingEntry& e : pending_) PutVarint32(&payload_, e.pos_count);
  for (const PendingEntry& e : pending_) PutVarint32(&payload_, e.pos_byte_len);
  // The pending entries' bytes are already back to back in entry order.
  AppendBytes(&payload_, pending_bytes_.data(), pending_bytes_.size());
}

size_t BlockPostingList::byte_size() const {
  // Skip table as serialized: delta-coded max_node + byte_offset delta +
  // entry_count, all varints. Recomputing the exact varint widths here keeps
  // the bench's "serialized bytes" number faithful without serializing.
  std::string scratch;
  NodeId prev_max = 0;
  uint32_t prev_off = 0;
  for (const SkipEntry& s : skips_) {
    PutVarint32(&scratch, s.max_node - prev_max);
    PutVarint32(&scratch, s.byte_offset - prev_off);
    PutVarint32(&scratch, s.entry_count);
    prev_max = s.max_node;
    prev_off = s.byte_offset;
  }
  return data().size() + scratch.size();
}

Status BlockPostingList::DecodeBlockEntries(size_t block,
                                            std::vector<EntryRef>* entries,
                                            EvalCounters* counters) const {
  if (block >= skips_.size()) {
    return Status::InvalidArgument("block index out of range");
  }
  const std::string_view payload = data();
  const SkipEntry& skip = skips_[block];
  if (skip.byte_offset > payload.size()) {
    return Status::Corruption("skip offset past payload");
  }
  const size_t end = block + 1 < skips_.size() ? skips_[block + 1].byte_offset
                                               : payload.size();
  if (end < skip.byte_offset || end > payload.size()) {
    return Status::Corruption("block entry count larger than block payload");
  }
  // Bound the entry count by the block's byte budget before reserving so a
  // crafted skip table cannot force a huge alloc: a varint entry takes at
  // least 3 bytes (node delta, count, position length); a bitset entry at
  // least one bitset bit plus two stream bytes (the bit is the binding
  // constraint once the span check below runs).
  const size_t block_bytes = end - skip.byte_offset;
  if (skip.encoding == kEncodingVarint
          ? skip.entry_count > block_bytes / 3 + 1
          : skip.entry_count > block_bytes * 8) {
    return Status::Corruption("block entry count larger than block payload");
  }
  if (skip.encoding != kEncodingVarint && skip.encoding != kEncodingBitset) {
    return Status::Corruption("unknown block encoding");
  }
  // First touch of a loaded block, the one block validator (queries, the
  // merger and the stats pass all reach it, whether the file was read or
  // mapped): verify the payload checksum
  // recorded in the (load-time-checksummed) skip directory before parsing
  // a single byte, so a flipped bit surfaces here as Corruption rather
  // than as structurally plausible garbage. Memoized: once this decode
  // succeeds end to end the block is marked verified and later decodes
  // skip the checksum and the framing walk below.
  const bool first_touch = !BlockVerified(block);
  if (first_touch) {
    if (Crc32c(payload.substr(skip.byte_offset, end - skip.byte_offset)) !=
        Checksums()[block]) {
      return Status::Corruption("block payload checksum mismatch at first touch");
    }
  }
  if (skip.encoding == kEncodingBitset) {
    FTS_RETURN_IF_ERROR(
        DecodeBitsetBlock(block, skip, payload, end, entries, counters));
  } else {
    entries->clear();
    entries->reserve(skip.entry_count);
    // Bulk path: one tight loop over the block's bytes through the pointer
    // varint decoders (one inline branch per header value in the common
    // one-byte case), hopping over position payloads via their byte length.
    const uint8_t* const base =
        reinterpret_cast<const uint8_t*>(payload.data());
    const uint8_t* p = base + skip.byte_offset;
    const uint8_t* const lim = base + end;
    NodeId prev_node = 0;
    for (uint32_t i = 0; i < skip.entry_count; ++i) {
      uint32_t node_delta, count, pos_len;
      if ((p = GetVarint32Ptr(p, lim, &node_delta)) == nullptr ||
          (p = GetVarint32Ptr(p, lim, &count)) == nullptr ||
          (p = GetVarint32Ptr(p, lim, &pos_len)) == nullptr) {
        return Status::Corruption("malformed posting block header");
      }
      const NodeId node = (i == 0) ? node_delta : prev_node + node_delta;
      if (i > 0 && (node_delta == 0 || node < prev_node)) {
        return Status::Corruption("non-increasing node ids in posting block");
      }
      if (i == 0 && block > 0 && node <= skips_[block - 1].max_node) {
        // Cross-block monotonicity, checked per block against the previous
        // skip header so lazily validated blocks need no neighbor decode.
        return Status::Corruption("non-increasing node ids across blocks");
      }
      prev_node = node;
      if (count > skip.max_tf) {
        // A crafted file must not be able to understate a block's max_tf:
        // an entry whose position count exceeds the recorded block maximum
        // would make the block-max impact bound an under-estimate and let
        // top-k evaluation skip a true top result.
        return Status::Corruption("entry position count exceeds block max_tf");
      }
      if (pos_len > static_cast<size_t>(lim - p)) {
        return Status::Corruption("position bytes overrun posting block");
      }
      EntryRef e;
      e.header.node = node;
      e.header.pos_count = count;
      e.pos_byte_begin = static_cast<uint32_t>(p - base);
      e.pos_byte_len = pos_len;
      p += pos_len;
      entries->push_back(e);
    }
    if (p != lim) {
      return Status::Corruption("posting block length mismatch");
    }
    if (prev_node != skip.max_node) {
      return Status::Corruption("posting block max_node mismatch");
    }
  }
  if (first_touch) {
    // Every entry's bytes hold exactly lanes() * pos_count varints, so any
    // entry of a verified block decodes (and a merge may copy it
    // verbatim).
    const uint8_t* const base =
        reinterpret_cast<const uint8_t*>(payload.data());
    for (const EntryRef& e : *entries) {
      const uint8_t* const pos = base + e.pos_byte_begin;
      if (!HoldsVarint32s(pos, pos + e.pos_byte_len,
                          uint64_t{lanes_} * e.header.pos_count)) {
        return Status::Corruption("malformed position bytes at first touch");
      }
    }
    VerifiedFlags()[block].store(1, std::memory_order_release);
  }
  // The one place a bulk block decode is charged: the cursor arena and
  // both cache levels all decode through here.
  if (counters != nullptr && !entries->empty()) {
    ++counters->blocks_decoded;
    ++counters->blocks_bulk_decoded;
    counters->entries_decoded += entries->size();
  }
  return Status::OK();
}

Status BlockPostingList::DecodeBitsetBlock(size_t block, const SkipEntry& skip,
                                           std::string_view payload, size_t end,
                                           std::vector<EntryRef>* entries,
                                           EvalCounters* counters) const {
  const uint8_t* const base =
      reinterpret_cast<const uint8_t*>(payload.data());
  const uint8_t* p = base + skip.byte_offset;
  const uint8_t* const lim = base + end;
  uint32_t bset_base, nwords;
  if ((p = GetVarint32Ptr(p, lim, &bset_base)) == nullptr ||
      (p = GetVarint32Ptr(p, lim, &nwords)) == nullptr) {
    return Status::Corruption("malformed bitset block header");
  }
  if (nwords == 0 || nwords > static_cast<size_t>(lim - p) / 8) {
    return Status::Corruption("bitset words overrun block payload");
  }
  if (skip.max_node < bset_base) {
    return Status::Corruption("bitset base past block max_node");
  }
  // The word count is fully determined by the (directory-checksummed)
  // max_node: any disagreement is corruption, and with it checked, the
  // highest set bit is pinned to exactly max_node below.
  const uint64_t span = static_cast<uint64_t>(skip.max_node) - bset_base + 1;
  if (nwords != (span + 63) / 64) {
    return Status::Corruption("bitset word count disagrees with max_node");
  }
  if (block > 0 && bset_base <= skips_[block - 1].max_node) {
    return Status::Corruption("non-increasing node ids across blocks");
  }
  const uint8_t* const words = p;
  p += static_cast<size_t>(nwords) * 8;
  // Resize (not clear+push_back): EntryRef is trivial, so a reused arena
  // pays no per-entry size checks and no re-initialization; every field is
  // written below before anyone reads it.
  entries->resize(skip.entry_count);
  EntryRef* const es = entries->data();
  size_t k = 0;
  // Expand set bits to node ids. Strict invariants: bit 0 set (base is the
  // first entry), the last valid bit set (max_node is the last), no stray
  // bits past the span, and the popcount must equal the skip entry count —
  // a flipped bitset bit can only ever surface as Corruption.
  for (uint32_t w = 0; w < nwords; ++w) {
    uint64_t bits = LoadFixed64Le(words + 8 * static_cast<size_t>(w));
    if (w == 0 && (bits & 1) == 0) {
      return Status::Corruption("bitset base bit unset");
    }
    if (w == nwords - 1) {
      const unsigned valid = static_cast<unsigned>(span - uint64_t{64} * w);
      if (valid < 64 && (bits >> valid) != 0) {
        return Status::Corruption("stray bits past bitset span");
      }
      if (((bits >> (valid - 1)) & 1) == 0) {
        return Status::Corruption("bitset max_node bit unset");
      }
    }
    if (k + static_cast<size_t>(std::popcount(bits)) > skip.entry_count) {
      return Status::Corruption("bitset popcount disagrees with entry count");
    }
    const NodeId wbase = bset_base + 64 * w;
    while (bits != 0) {
      const int bit = std::countr_zero(bits);
      bits &= bits - 1;
      es[k++].header.node = wbase + static_cast<NodeId>(bit);
    }
  }
  if (k != skip.entry_count) {
    return Status::Corruption("bitset popcount disagrees with entry count");
  }
  // Per-entry position counts, then position byte lengths: contiguous
  // streams decoded in bulk through the dispatched (SIMD-capable) group
  // decoder — this is the entry-header decode the hybrid layout exists to
  // un-interleave. One loop serves both; each store compiles into its own
  // copy of it.
  const bool simd = SimdDecodeActive();
  const auto stream = [&](auto store) {
    uint32_t buf[128];
    for (uint32_t done = 0; done < skip.entry_count;) {
      const uint32_t chunk = std::min(skip.entry_count - done, 128u);
      if ((p = GetVarint32GroupAuto(p, lim, buf, chunk)) == nullptr) return false;
      if (simd && counters != nullptr) ++counters->simd_groups_decoded;
      for (uint32_t j = 0; j < chunk; ++j) store(es[done + j], buf[j]);
      done += chunk;
    }
    return true;
  };
  uint32_t max_count = 0;
  if (!stream([&](EntryRef& e, uint32_t count) {
        e.header.pos_count = count;
        max_count = std::max(max_count, count);
      })) {
    return Status::Corruption("malformed bitset count stream");
  }
  if (max_count > skip.max_tf) {
    return Status::Corruption("entry position count exceeds block max_tf");
  }
  if (!stream([](EntryRef& e, uint32_t len) { e.pos_byte_len = len; })) {
    return Status::Corruption("malformed bitset length stream");
  }
  // Position bytes follow the length stream back to back; the lengths must
  // tile the remaining payload exactly.
  uint64_t pos_off = static_cast<uint64_t>(p - base);
  for (EntryRef& e : *entries) {
    e.pos_byte_begin = static_cast<uint32_t>(pos_off);
    pos_off += e.pos_byte_len;
    if (pos_off > end) {
      return Status::Corruption("position bytes overrun posting block");
    }
  }
  if (pos_off != end) {
    return Status::Corruption("posting block length mismatch");
  }
  return Status::OK();
}

Status BlockPostingList::DecodePositions(const EntryRef& entry,
                                         std::vector<PositionInfo>* positions,
                                         EvalCounters* counters) const {
  FTS_RETURN_IF_ERROR(DecodePositionRun({&entry, 1}, positions, nullptr, counters));
  positions->resize(entry.header.pos_count);
  return Status::OK();
}

Status BlockPostingList::DecodePositionRun(std::span<const EntryRef> run,
                                           std::vector<PositionInfo>* positions,
                                           std::vector<uint32_t>* offsets,
                                           EvalCounters* counters) const {
  return DecodeRun<1>(run, positions, offsets, counters);
}

Status BlockPostingList::DecodePositionRun(std::span<const EntryRef> run,
                                           std::vector<PairRecord>* records,
                                           std::vector<uint32_t>* offsets,
                                           EvalCounters* counters) const {
  return DecodeRun<2>(run, records, offsets, counters);
}

template <uint32_t kLanes, typename Out>
Status BlockPostingList::DecodeRun(std::span<const EntryRef> run,
                                   std::vector<Out>* out,
                                   std::vector<uint32_t>* offsets,
                                   EvalCounters* counters) const {
  if (run.empty()) {
    return Status::InvalidArgument("empty position run");
  }
  if (lanes_ != kLanes) {
    return Status::InvalidArgument("record lanes disagree with the list's");
  }
  const std::string_view payload = data();
  if (offsets != nullptr) offsets->resize(run.size() + 1);
  uint64_t total = 0;
  uint64_t next_begin = run[0].pos_byte_begin;
  // Each record takes at least one byte per lane, and the entries' bytes
  // must tile back to back, which makes one decode of the region
  // equivalent to per-entry decodes of its slices.
  for (size_t i = 0; i < run.size(); ++i) {
    const EntryRef& e = run[i];
    if (uint64_t{kLanes} * e.header.pos_count > e.pos_byte_len ||
        e.pos_byte_begin != next_begin) {
      return Status::Corruption("position count larger than position bytes");
    }
    next_begin += e.pos_byte_len;
    if (offsets != nullptr) (*offsets)[i] = static_cast<uint32_t>(total);
    total += e.header.pos_count;
  }
  if (offsets != nullptr) (*offsets)[run.size()] = static_cast<uint32_t>(total);
  if (run[0].pos_byte_begin > payload.size() || next_begin > payload.size()) {
    return Status::Corruption("position count larger than position bytes");
  }
  // The vector never shrinks here: a reused arena is zero-filled once as
  // it grows, not again each time a longer run follows a shorter one.
  if (out->size() < total) out->resize(total);
  // Decode-and-prefix runs fused in L1-sized chunks: decoding the whole
  // region into a scratch first looked simpler but round-trips every
  // delta through L2 (written by the kernel, read back by the prefix
  // pass), which dominates once a block's records outgrow L1.
  constexpr size_t kChunkRecords = 1536 / kLanes;
  uint32_t deltas[kLanes * kChunkRecords];
  const uint8_t* const base = reinterpret_cast<const uint8_t*>(payload.data());
  const uint8_t* p = base + run[0].pos_byte_begin;
  // The region decodes as one varint stream. The kernel limit is the
  // payload end, not the region end, so its 16/32-byte loads stay engaged
  // to the last value (reads stay inside the payload); the
  // exact-consumption check at the bottom is what pins the stream to the
  // region — a malformed stream that strays past an entry boundary lands
  // on the wrong total and is rejected.
  const bool simd = SimdDecodeActive();
  size_t ei = 0;               // entry whose records are being emitted
  uint32_t done_in_entry = 0;  // records already emitted for run[ei]
  Out* o = out->data();
  uint32_t sum = 0;  // the offset lane's running sum within the entry
  for (uint64_t left = total; left > 0;) {
    const size_t take =
        static_cast<size_t>(std::min<uint64_t>(left, kChunkRecords));
    p = GetVarint32GroupAuto(p, base + payload.size(), deltas, kLanes * take);
    if (p == nullptr) return Status::Corruption("malformed position bytes");
    if (simd && counters != nullptr) ++counters->simd_groups_decoded;
    // Emit this chunk's records, walking entry boundaries as they pass;
    // the offset sum restarts per entry. A chunk boundary can split an
    // entry, so the running sum and the entry walk persist across
    // iterations.
    const uint32_t* d = deltas;
    for (size_t avail = take; avail > 0;) {
      while (run[ei].header.pos_count == done_in_entry) {
        ++ei;
        done_in_entry = 0;
        sum = 0;
      }
      const uint32_t n = static_cast<uint32_t>(std::min<uint64_t>(
          run[ei].header.pos_count - done_in_entry, avail));
      for (uint32_t r = 0; r < n; ++r, d += kLanes, ++o) {
        sum += d[0];
        if constexpr (kLanes == 1) {
          *o = PositionInfo{sum, 0, 0};
        } else {
          *o = PairRecord{sum, d[1]};
        }
      }
      done_in_entry += n;
      avail -= n;
    }
    left -= take;
  }
  if (p != base + next_begin) {
    return Status::Corruption("position bytes length mismatch");
  }
  return Status::OK();
}

Status BlockPostingList::DecodeBlock(size_t block,
                                     std::vector<PostingEntry>* entries,
                                     std::vector<PositionInfo>* positions) const {
  std::vector<EntryRef> refs;
  FTS_RETURN_IF_ERROR(DecodeBlockEntries(block, &refs));
  entries->clear();
  positions->clear();
  entries->reserve(refs.size());
  std::vector<PositionInfo> scratch;
  for (const EntryRef& ref : refs) {
    FTS_RETURN_IF_ERROR(DecodePositions(ref, &scratch));
    PostingEntry e = ref.header;
    e.pos_begin = static_cast<uint32_t>(positions->size());
    positions->insert(positions->end(), scratch.begin(), scratch.end());
    entries->push_back(e);
  }
  return Status::OK();
}

void PostingStore::Reserve(size_t lists, size_t blocks, size_t payload_bytes) {
  extents_.reserve(extents_.size() + lists);
  skips_.reserve(skips_.size() + blocks);
  if (payload_bytes > 0) {
    if (payloads_.empty()) payloads_.emplace_back();
    payloads_.back().reserve(payloads_.back().size() + payload_bytes);
  }
}

void PostingStore::Add(BlockListWriter&& writer) {
  assert(checksums_.empty());  // writer and checked lists never mix
  writer.FlushPending();
  if (payloads_.empty()) payloads_.emplace_back();
  PageBytes& payload = payloads_.back();
  extents_.push_back({.num_entries = writer.num_entries_,
                      .total_positions = writer.total_positions_,
                      .payload_begin = payload.size(),
                      .payload_size = writer.payload_.size(),
                      .num_blocks = static_cast<uint32_t>(writer.skips_.size()),
                      .block_size = writer.block_size_,
                      .lanes = writer.lanes_,
                      .buffer = payloads_.size() - 1});
  payload.insert(payload.end(), writer.payload_.begin(), writer.payload_.end());
  skips_.insert(skips_.end(), writer.skips_.begin(), writer.skips_.end());
  writer.num_entries_ = 0;
  writer.total_positions_ = 0;
  writer.payload_.clear();
  writer.skips_.clear();
}

void PostingStore::ShrinkPayload() {
  for (PageBytes& payload : payloads_) payload.shrink_to_fit();
}

void PostingStore::Append(std::span<PostingStore> parts) {
  assert(checksums_.empty());  // writer and checked lists never mix
  size_t lists = 0, blocks = 0;
  for (const PostingStore& part : parts) {
    lists += part.extents_.size();
    blocks += part.skips_.size();
  }
  Reserve(lists, blocks, 0);
  for (PostingStore& part : parts) {
    assert(part.lists_.empty() && part.checksums_.empty());
    for (Extent e : part.extents_) {
      e.buffer += payloads_.size();
      extents_.push_back(e);
    }
    skips_.insert(skips_.end(), part.skips_.begin(), part.skips_.end());
    std::move(part.payloads_.begin(), part.payloads_.end(),
              std::back_inserter(payloads_));
    part = PostingStore();
  }
}

void PostingStore::AddChecked(uint32_t lanes, uint32_t block_size,
                              uint64_t num_entries,
                              uint64_t total_positions,
                              std::span<const BlockPostingList::SkipEntry> skips,
                              std::span<const uint32_t> checksums,
                              size_t payload_begin, size_t payload_size) {
  assert(payloads_.empty() && checksums.size() == skips.size() &&
         skips.size() <= UINT32_MAX);
  extents_.push_back({.num_entries = num_entries,
                      .total_positions = total_positions,
                      .payload_begin = payload_begin,
                      .payload_size = payload_size,
                      .num_blocks = static_cast<uint32_t>(skips.size()),
                      .block_size = block_size,
                      .lanes = lanes,
                      .buffer = 0});
  skips_.insert(skips_.end(), skips.begin(), skips.end());
  checksums_.insert(checksums_.end(), checksums.begin(), checksums.end());
}

void PostingStore::Seal(std::shared_ptr<const IndexSource> source) {
  assert(lists_.empty());
  // Regrown arrays give their slack back before any list points into them.
  skips_.shrink_to_fit();
  checksums_.shrink_to_fit();
  source_ = std::move(source);
  // The bytes an extent's offsets index: the source, or one payload buffer.
  std::vector<std::string_view> buffers;
  if (source_ != nullptr) {
    buffers.push_back(source_->view());
  } else {
    for (const PageBytes& p : payloads_) buffers.emplace_back(p.data(), p.size());
  }
  const bool checked = !checksums_.empty();
  if (checked) {
    verified_ = std::make_unique<std::atomic<uint8_t>[]>(skips_.size());
    for (size_t b = 0; b < skips_.size(); ++b) {
      verified_[b].store(0, std::memory_order_relaxed);
    }
  }
  static std::atomic<uint64_t> next_uid{1};
  uint64_t uid = next_uid.fetch_add(extents_.size(), std::memory_order_relaxed);
  lists_.resize(extents_.size());
  size_t first_block = 0;
  for (size_t i = 0; i < extents_.size(); ++i) {
    const Extent& e = extents_[i];
    BlockPostingList& l = lists_[i];
    l.data_ = buffers[e.buffer].substr(e.payload_begin, e.payload_size);
    l.skips_ = std::span<const BlockPostingList::SkipEntry>(skips_).subspan(
        first_block, e.num_blocks);
    if (checked) {
      l.checksums_ = checksums_.data() + first_block;
      l.verified_ = verified_.get() + first_block;
    }
    first_block += e.num_blocks;
    l.num_entries_ = e.num_entries;
    l.total_positions_ = e.total_positions;
    l.uid_ = uid++;
    l.block_size_ = e.block_size;
    l.lanes_ = static_cast<uint8_t>(e.lanes);
  }
  std::vector<Extent>().swap(extents_);
}

size_t PostingStore::MemoryUsage() const {
  size_t bytes = lists_.capacity() * sizeof(BlockPostingList) +
                 skips_.capacity() * sizeof(BlockPostingList::SkipEntry) +
                 checksums_.capacity() * sizeof(uint32_t) +
                 (verified_ != nullptr ? skips_.size() : 0);
  for (const PageBytes& payload : payloads_) bytes += payload.size();
  return bytes;
}

BlockListCursor& BlockListCursor::operator=(BlockListCursor&& o) noexcept {
  list_ = o.list_;
  counters_ = o.counters_;
  cache_ = o.cache_;
  tombstones_ = o.tombstones_;
  structure_ = o.structure_;
  const bool own_arena = o.entries_ == &o.arena_;
  arena_ = std::move(o.arena_);
  cached_ = std::move(o.cached_);
  entries_ = o.entries_ == nullptr ? nullptr
                                   : (own_arena ? &arena_ : &cached_->entries);
  positions_ = std::move(o.positions_);
  records_ = std::move(o.records_);
  pos_offsets_ = std::move(o.pos_offsets_);
  pos_block_ = o.pos_block_;
  pos_from_ = o.pos_from_;
  pos_to_ = o.pos_to_;
  pos_span_ = o.pos_span_;
  last_pos_block_ = o.last_pos_block_;
  last_pos_idx_ = o.last_pos_idx_;
  streak_len_ = o.streak_len_;
  block_ = o.block_;
  idx_ = o.idx_;
  started_ = o.started_;
  exhausted_ = o.exhausted_;
  node_ = o.node_;
  status_ = std::move(o.status_);
  return *this;
}

bool BlockListCursor::LoadBlock(size_t block) {
  const bool was_verified = list_->BlockVerified(block);
  // The attached L1 decides per list whether a cache level holds it
  // (DecodedBlockCache::Serves); a list that would cycle every level
  // decodes into the cursor's private arena.
  const std::vector<BlockPostingList::EntryRef>* loaded = nullptr;
  Status s;
  if (cache_ != nullptr && cache_->Serves(*list_)) {
    cached_ = cache_->GetOrDecode(*list_, block, counters_, &s);
    if (cached_ != nullptr) loaded = &cached_->entries;
  } else {
    s = list_->DecodeBlockEntries(block, &arena_, counters_);
    if (s.ok() && !arena_.empty()) loaded = &arena_;
  }
  if (loaded == nullptr) {
    // Under first-touch validation a decode failure is lazily detected
    // corruption: record it and fail closed by exhausting.
    if (!s.ok() && status_.ok()) status_ = std::move(s);
    return false;
  }
  entries_ = loaded;
  if (counters_ != nullptr && !was_verified && list_->BlockVerified(block)) {
    ++counters_->first_touch_validations;
  }
  block_ = block;
  return true;
}

NodeId BlockListCursor::NextEntrySlow() {
  NodeId n = NextEntryUnfiltered();
  while (tombstones_ != nullptr && n != kInvalidNode && tombstones_->Contains(n)) {
    n = NextEntryUnfiltered();
  }
  return n;
}

NodeId BlockListCursor::SeekEntry(NodeId target) {
  // A filtered cursor never rests on a tombstoned entry, so the
  // backward-seek early return inside SeekEntryUnfiltered stays sound.
  NodeId n = SeekEntryUnfiltered(target);
  while (tombstones_ != nullptr && n != kInvalidNode && tombstones_->Contains(n)) {
    n = NextEntryUnfiltered();
  }
  return n;
}

NodeId BlockListCursor::NextEntryUnfiltered() {
  if (exhausted_) return kInvalidNode;
  if (!started_) {
    started_ = true;
    if (list_ == nullptr || list_->num_blocks() == 0 || !LoadBlock(0)) {
      exhausted_ = true;
      node_ = kInvalidNode;
      return kInvalidNode;
    }
    idx_ = 0;
  } else if (idx_ + 1 < entries_->size()) {
    ++idx_;
  } else if (block_ + 1 < list_->num_blocks() && LoadBlock(block_ + 1)) {
    idx_ = 0;
  } else {
    exhausted_ = true;
    node_ = kInvalidNode;
    return kInvalidNode;
  }
  if (counters_ != nullptr) ++counters_->entries_scanned;
  node_ = (*entries_)[idx_].header.node;
  return node_;
}

NodeId BlockListCursor::SeekEntryUnfiltered(NodeId target) {
  if (exhausted_) return kInvalidNode;
  if (started_ && node_ != kInvalidNode && node_ >= target) {
    return node_;  // backward (or in-place) seeks do not move the cursor
  }
  if (list_ == nullptr || list_->num_blocks() == 0) {
    started_ = true;
    exhausted_ = true;
    node_ = kInvalidNode;
    return kInvalidNode;
  }
  // Binary search the skip headers for the first block whose max_node can
  // reach the target. Blocks before the current one need not be considered.
  size_t lo = started_ ? block_ : 0;
  size_t hi = list_->num_blocks();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (counters_ != nullptr) ++counters_->skip_checks;
    if (list_->skip(mid).max_node < target) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo >= list_->num_blocks()) {
    started_ = true;
    exhausted_ = true;
    node_ = kInvalidNode;
    return kInvalidNode;
  }
  const bool same_block = started_ && lo == block_;
  if (!same_block) {
    if (!LoadBlock(lo)) {
      started_ = true;
      exhausted_ = true;
      node_ = kInvalidNode;
      return kInvalidNode;
    }
    idx_ = 0;
  } else if (node_ != kInvalidNode) {
    // Resume within the already-decoded block, just past the current entry.
    ++idx_;
  }
  started_ = true;
  // The landing block's max_node >= target, so a match exists in it unless
  // we resumed mid-block past it (impossible: node_ < target guaranteed a
  // later entry in this block or a later block would have been selected).
  while (idx_ < entries_->size() && (*entries_)[idx_].header.node < target) ++idx_;
  if (idx_ >= entries_->size()) {
    exhausted_ = true;
    node_ = kInvalidNode;
    return kInvalidNode;
  }
  if (counters_ != nullptr) ++counters_->entries_scanned;
  node_ = (*entries_)[idx_].header.node;
  return node_;
}

bool BlockListCursor::CurrentDenseBlock(DenseBlockView* view) const {
  if (!started_ || exhausted_ || list_ == nullptr) return false;
  const BlockPostingList::SkipEntry& skip = list_->skip(block_);
  if (skip.encoding != BlockPostingList::kEncodingBitset) return false;
  // The block was decoded — and, under lazy loading, first-touch validated
  // — to position the cursor on it, so re-reading the two framing varints
  // is safe; the defensive checks below only guard against logic drift.
  const std::string_view payload = list_->data();
  const uint8_t* const base =
      reinterpret_cast<const uint8_t*>(payload.data());
  const uint8_t* p = base + skip.byte_offset;
  const uint8_t* const lim = base + payload.size();
  uint32_t bset_base, nwords;
  if ((p = GetVarint32Ptr(p, lim, &bset_base)) == nullptr ||
      (p = GetVarint32Ptr(p, lim, &nwords)) == nullptr) {
    return false;
  }
  if (nwords == 0 || nwords > static_cast<size_t>(lim - p) / 8) return false;
  view->base = bset_base;
  view->max_node = skip.max_node;
  view->words = p;
  view->nwords = nwords;
  return true;
}

template <typename T>
std::span<const T> BlockListCursor::DecodeIntoArena(std::vector<T>* arena) {
  assert(started_ && !exhausted_);
  // Two consecutive entries' records in one block predict a records-heavy
  // walk of the rest of it: decode a span of the following entries in one
  // contiguous pass (bitset blocks concatenate record bytes exactly so the
  // SIMD kernel never stops at entry boundaries). Selective access — one
  // phrase match per block — never streaks, so it keeps strict per-entry
  // laziness: a run of one entry.
  const bool consec = last_pos_block_ == block_ && last_pos_idx_ + 1 == idx_;
  streak_len_ = consec ? streak_len_ + 1 : 1;
  last_pos_block_ = block_;
  last_pos_idx_ = idx_;
  // `continuing` = the walk just crossed the end of the previous span
  // (whose entries were served by the inline fast path, so streak_len_
  // did not advance across them).
  const bool continuing = pos_block_ == block_ && idx_ == pos_to_ && pos_span_ > 0;
  uint32_t span = 0;
  size_t to = idx_ + 1;
  if ((continuing || streak_len_ >= kBulkStreakTrigger) &&
      idx_ + 1 < entries_->size() &&
      list_->skip(block_).encoding == BlockPostingList::kEncodingBitset) {
    // Geometric span growth: a continuing walk doubles the previous span;
    // a fresh streak starts small.
    span = continuing ? pos_span_ * 2 : kBulkSpanInitial;
    to = std::min(entries_->size(), idx_ + span);
  }
  Status s = list_->DecodePositionRun(block_entries().subspan(idx_, to - idx_),
                                      arena, &pos_offsets_, counters_);
  if (!s.ok()) {
    // Malformed record bytes (first touch of the block rejects them, so
    // this guards against logic drift), or a list of the other lane
    // count: report through status() and hand back an empty span — fail
    // closed, never partial garbage.
    pos_block_ = SIZE_MAX;
    if (status_.ok()) status_ = std::move(s);
    return {};
  }
  pos_block_ = block_;
  pos_from_ = idx_;
  pos_to_ = to;
  pos_span_ = span;
  if (counters_ != nullptr) counters_->positions_decoded += pos_offsets_.back();
  return {arena->data(), pos_offsets_[1]};
}

std::span<const PositionInfo> BlockListCursor::GetPositionsSlow() {
  const std::span<const PositionInfo> current = DecodeIntoArena(&positions_);
  if (structure_ != nullptr && pos_block_ == block_) {
    // The plan reads sentence or paragraph: fill every decoded entry's
    // positions from its node's runs.
    for (size_t i = pos_from_; i < pos_to_; ++i) {
      const size_t rel = i - pos_from_;
      structure_->Fill((*entries_)[i].header.node,
                       std::span(positions_.data() + pos_offsets_[rel],
                                 pos_offsets_[rel + 1] - pos_offsets_[rel]));
    }
  }
  return current;
}

std::span<const PairRecord> BlockListCursor::GetRecordsSlow() {
  return DecodeIntoArena(&records_);
}

}  // namespace fts
