#include "index/block_posting_list.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdlib>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "common/fnv.h"
#include "common/varint.h"
#include "common/varint_simd.h"
#include "index/decoded_block_cache.h"
#include "index/shared_block_cache.h"
#include "index/tombstone_set.h"

namespace fts {

namespace {

/// Bitset words are stored little-endian so files are byte-identical
/// across hosts; the shift loops compile to plain loads/stores on LE.
void PutFixed64Le(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

/// PutVarint32's encoding, written at `out` (room for 5 bytes); returns
/// the byte after it.
uint8_t* EncodeVarint32(uint8_t* out, uint32_t v) {
  while (v >= 0x80) {
    *out++ = static_cast<uint8_t>(v | 0x80);
    v >>= 7;
  }
  *out++ = static_cast<uint8_t>(v);
  return out;
}

uint64_t LoadFixed64Le(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(p[i]) << (8 * i);
  }
  return v;
}

std::atomic<bool>& DenseBlocksDefaultFlag() {
  static std::atomic<bool> flag = [] {
    const char* disable = std::getenv("FTS_DISABLE_BITSET_BLOCKS");
    return disable == nullptr || disable[0] != '1';
  }();
  return flag;
}

}  // namespace

bool BlockPostingList::DenseBlocksEnabledByDefault() {
  return DenseBlocksDefaultFlag().load(std::memory_order_relaxed);
}

bool BlockPostingList::SetDenseBlocksEnabledByDefault(bool enabled) {
  return DenseBlocksDefaultFlag().exchange(enabled, std::memory_order_relaxed);
}

BlockPostingList BlockPostingList::FromPostingList(const PostingList& raw,
                                                   uint32_t block_size) {
  BlockPostingList out(block_size);
  for (size_t i = 0; i < raw.num_entries(); ++i) {
    const PostingEntry& e = raw.entry(i);
    out.Append(e.node, raw.positions(e));
  }
  out.Finish();
  return out;
}

PostingList BlockPostingList::Materialize() const {
  PostingList out;
  std::vector<PostingEntry> entries;
  std::vector<PositionInfo> positions;
  for (size_t b = 0; b < num_blocks(); ++b) {
    Status s = DecodeBlock(b, &entries, &positions);
    assert(s.ok());
    (void)s;
    for (const PostingEntry& e : entries) {
      out.Append(e.node, {positions.data() + e.pos_begin, e.pos_count});
    }
  }
  return out;
}

void BlockPostingList::Append(NodeId node, std::span<const PositionInfo> positions) {
  // Offset/sentence/paragraph deltas, restarting from zero per entry, so an
  // entry's bytes never depend on its node id or its neighbours.
  const size_t begin = pending_bytes_.size();
  pending_bytes_.resize(begin + positions.size() * 3 * 5);  // 5 = max varint32
  uint8_t* out = pending_bytes_.data() + begin;
  uint32_t prev_off = 0, prev_sent = 0, prev_para = 0;
  for (const PositionInfo& p : positions) {
    out = EncodeVarint32(out, p.offset - prev_off);
    out = EncodeVarint32(out, p.sentence - prev_sent);
    out = EncodeVarint32(out, p.paragraph - prev_para);
    prev_off = p.offset;
    prev_sent = p.sentence;
    prev_para = p.paragraph;
  }
  pending_bytes_.resize(out - pending_bytes_.data());
  AppendPending(node, static_cast<uint32_t>(positions.size()), begin);
}

void BlockPostingList::AppendEncoded(NodeId node, uint32_t pos_count,
                                     std::string_view pos_bytes) {
  const size_t begin = pending_bytes_.size();
  pending_bytes_.insert(pending_bytes_.end(), pos_bytes.begin(), pos_bytes.end());
  AppendPending(node, pos_count, begin);
}

void BlockPostingList::AppendPending(NodeId node, uint32_t pos_count,
                                     size_t byte_begin) {
  assert(pending_.empty() || pending_.back().node < node);
  assert(skips_.empty() || !pending_.empty() || skips_.back().max_node < node);
  pending_.push_back({node, pos_count, static_cast<uint32_t>(byte_begin),
                      static_cast<uint32_t>(pending_bytes_.size() - byte_begin)});
  ++num_entries_;
  total_positions_ += pos_count;
  if (pending_.size() >= block_size_) FlushPending();
}

void BlockPostingList::FlushPending() {
  if (pending_.empty()) return;
  SkipEntry skip;
  skip.max_node = pending_.back().node;
  skip.byte_offset = static_cast<uint32_t>(owned_.size());
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
  if (dense_enabled_ && pending_.size() >= kMinDenseEntries &&
      span <= static_cast<uint64_t>(kDenseSpanFactor) * pending_.size()) {
    FlushPendingBitset(&skip);
  } else {
    // First node of the block is absolute so blocks decode independently;
    // subsequent ids are strictly positive deltas. Each entry's position
    // bytes sit behind their byte length so header-only decoding can hop
    // over them.
    NodeId prev_node = 0;
    bool first = true;
    for (const PendingEntry& e : pending_) {
      PutVarint32(&owned_, first ? e.node : e.node - prev_node);
      first = false;
      prev_node = e.node;
      PutVarint32(&owned_, e.pos_count);
      PutVarint32(&owned_, e.pos_byte_len);
      owned_.append(reinterpret_cast<const char*>(pending_bytes_.data()) +
                        e.pos_byte_begin,
                    e.pos_byte_len);
    }
  }
  skips_.push_back(skip);
  pending_.clear();
  pending_bytes_.clear();
}

void BlockPostingList::FlushPendingBitset(SkipEntry* skip) {
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
  skip->encoding = kEncodingBitset;
  const NodeId base = pending_.front().node;
  const uint64_t span = static_cast<uint64_t>(skip->max_node) - base + 1;
  const uint32_t nwords = static_cast<uint32_t>((span + 63) / 64);
  PutVarint32(&owned_, base);
  PutVarint32(&owned_, nwords);
  std::vector<uint64_t> words(nwords, 0);
  for (const PendingEntry& e : pending_) {
    const uint64_t bit = e.node - base;
    words[bit >> 6] |= uint64_t{1} << (bit & 63);
  }
  for (uint32_t w = 0; w < nwords; ++w) PutFixed64Le(&owned_, words[w]);
  for (const PendingEntry& e : pending_) PutVarint32(&owned_, e.pos_count);
  for (const PendingEntry& e : pending_) PutVarint32(&owned_, e.pos_byte_len);
  // The pending entries' bytes are already back to back in entry order.
  owned_.append(reinterpret_cast<const char*>(pending_bytes_.data()),
                pending_bytes_.size());
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
  // First touch of a lazily validated block: verify the payload checksum
  // recorded in the (load-time-checksummed) skip directory before parsing
  // a single byte, so a flipped bit in an mmap'd file surfaces here as
  // Corruption rather than as structurally plausible garbage. Memoized:
  // once this decode succeeds end to end the block is marked verified and
  // later decodes skip the hash.
  const bool first_touch = block_verified_ != nullptr &&
      block_verified_[block].load(std::memory_order_acquire) == 0;
  if (first_touch && !block_checksums_.empty()) {
    if (Fnv1a32(payload.substr(skip.byte_offset, end - skip.byte_offset)) !=
        block_checksums_[block]) {
      return Status::Corruption("block payload checksum mismatch at first touch");
    }
  }
  if (skip.encoding == kEncodingBitset) {
    FTS_RETURN_IF_ERROR(
        DecodeBitsetBlock(block, skip, payload, end, entries, counters));
    if (first_touch) {
      block_verified_[block].store(1, std::memory_order_release);
    }
    return Status::OK();
  }
  entries->clear();
  entries->reserve(skip.entry_count);
  // Bulk path: one tight loop over the block's bytes through the pointer
  // varint decoders (one inline branch per header value in the common
  // one-byte case), hopping over position payloads via their byte length.
  const uint8_t* const base = reinterpret_cast<const uint8_t*>(payload.data());
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
  if (first_touch) {
    block_verified_[block].store(1, std::memory_order_release);
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
  // un-interleave.
  const bool simd = SimdDecodeActive();
  uint32_t buf[128];
  for (uint32_t done = 0; done < skip.entry_count;) {
    const uint32_t chunk = std::min(skip.entry_count - done, 128u);
    if ((p = GetVarint32GroupAuto(p, lim, buf, chunk)) == nullptr) {
      return Status::Corruption("malformed bitset count stream");
    }
    if (simd && counters != nullptr) ++counters->simd_groups_decoded;
    for (uint32_t j = 0; j < chunk; ++j) {
      if (buf[j] > skip.max_tf) {
        return Status::Corruption("entry position count exceeds block max_tf");
      }
      (*entries)[done + j].header.pos_count = buf[j];
    }
    done += chunk;
  }
  for (uint32_t done = 0; done < skip.entry_count;) {
    const uint32_t chunk = std::min(skip.entry_count - done, 128u);
    if ((p = GetVarint32GroupAuto(p, lim, buf, chunk)) == nullptr) {
      return Status::Corruption("malformed bitset length stream");
    }
    if (simd && counters != nullptr) ++counters->simd_groups_decoded;
    for (uint32_t j = 0; j < chunk; ++j) {
      (*entries)[done + j].pos_byte_len = buf[j];
    }
    done += chunk;
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
  const std::string_view payload = data();
  // Each position takes at least 3 bytes (three varints).
  if (entry.header.pos_count > entry.pos_byte_len / 3 + 1 ||
      entry.pos_byte_begin > payload.size() ||
      entry.pos_byte_len > payload.size() - entry.pos_byte_begin) {
    return Status::Corruption("position count larger than position bytes");
  }
  const uint32_t count = entry.header.pos_count;
  positions->resize(count);
  const uint8_t* const base = reinterpret_cast<const uint8_t*>(payload.data());
  const uint8_t* p = base + entry.pos_byte_begin;
  const uint8_t* const lim = p + entry.pos_byte_len;
  // Bulk-decode the delta triples in fixed-size chunks through the
  // dispatched group decoder (pshufb shuffle-table kernel when a SIMD arm
  // is active, the unchecked four-wide scalar loop otherwise), then
  // prefix-sum into the output. The chunk buffer keeps the scratch
  // stack-resident.
  const bool simd = SimdDecodeActive();
  uint32_t deltas[3 * 64];
  uint32_t off = 0, sent = 0, para = 0;
  uint32_t done = 0;
  while (done < count) {
    const uint32_t chunk = std::min(count - done, 64u);
    if ((p = GetVarint32GroupAuto(p, lim, deltas, 3 * chunk)) == nullptr) {
      return Status::Corruption("malformed position bytes");
    }
    if (simd && counters != nullptr) ++counters->simd_groups_decoded;
    for (uint32_t j = 0; j < chunk; ++j) {
      off += deltas[3 * j];
      sent += deltas[3 * j + 1];
      para += deltas[3 * j + 2];
      (*positions)[done + j] = PositionInfo{off, sent, para};
    }
    done += chunk;
  }
  if (p != lim) {
    return Status::Corruption("position bytes length mismatch");
  }
  return Status::OK();
}

Status BlockPostingList::DecodeBlockPositionsBulk(
    std::span<const EntryRef> refs, size_t from, size_t to,
    std::vector<uint32_t>* delta_scratch, std::vector<PositionInfo>* positions,
    std::vector<uint32_t>* offsets, EvalCounters* counters) const {
  if (from >= to || to > refs.size()) {
    return Status::InvalidArgument("bulk position decode range out of block");
  }
  const std::string_view payload = data();
  const size_t n = to - from;
  offsets->resize(n + 1);
  uint32_t* const offs = offsets->data();
  uint64_t total = 0;
  uint64_t next_begin = refs[from].pos_byte_begin;
  // The same prechecks DecodePositions runs per entry, plus the tiling
  // requirement that makes one contiguous decode of the concatenated
  // region equivalent to per-entry decodes of its slices (tiling also
  // subsumes the per-entry begin bound: the region start and end are
  // range-checked once below).
  for (size_t i = from; i < to; ++i) {
    const EntryRef& e = refs[i];
    if (e.header.pos_count > e.pos_byte_len / 3 + 1 ||
        e.pos_byte_begin != next_begin) {
      return Status::Corruption("position count larger than position bytes");
    }
    next_begin += e.pos_byte_len;
    offs[i - from] = static_cast<uint32_t>(total);
    total += e.header.pos_count;
  }
  offs[n] = static_cast<uint32_t>(total);
  if (refs[from].pos_byte_begin > payload.size() ||
      next_begin > payload.size()) {
    return Status::Corruption("position count larger than position bytes");
  }
  // One slot of headroom each: the vectorized prefix pass below reads
  // 16-byte delta quads and writes 16-byte sum quads at a 12-byte stride,
  // so its last load/store reach one lane past the real data.
  positions->resize(total + 1);
  // Decode-and-prefix runs fused in L1-sized chunks: decoding the whole
  // region into a 3*total scratch first looked simpler but round-trips
  // every delta through L2 (written by the kernel, read back by the
  // prefix pass), which dominates once a block's positions outgrow L1.
  constexpr size_t kChunkValues = 3 * 512;
  delta_scratch->resize(kChunkValues + 1);
  const uint8_t* const base = reinterpret_cast<const uint8_t*>(payload.data());
  const uint8_t* p = base + refs[from].pos_byte_begin;
  const uint8_t* const region_end = base + next_begin;
  // The region decodes as one varint stream. The kernel limit is the
  // payload end, not the region end, so its 16/32-byte loads stay engaged
  // to the last value (reads stay inside the payload); the
  // exact-consumption check at the bottom is what pins the stream to the
  // region — a malformed stream that strays past an entry boundary lands
  // on the wrong total and is rejected, same failure class as the
  // per-entry path.
  const bool simd = SimdDecodeActive();
  size_t ei = from;           // entry whose positions are being emitted
  uint32_t done_in_entry = 0;  // positions already emitted for refs[ei]
  char* ob = reinterpret_cast<char*>(positions->data());
#if defined(__SSE2__)
  __m128i sum = _mm_setzero_si128();
#else
  uint32_t off = 0, sent = 0, para = 0;
#endif
  for (uint64_t left = total; left > 0;) {
    const size_t take = static_cast<size_t>(
        std::min<uint64_t>(left, kChunkValues / 3));
    p = GetVarint32GroupAuto(p, base + payload.size(), delta_scratch->data(),
                             3 * take);
    if (p == nullptr) {
      positions->resize(total);
      return Status::Corruption("position bytes length mismatch");
    }
    if (simd && counters != nullptr) ++counters->simd_groups_decoded;
    // Emit this chunk's positions, walking entry boundaries as they pass;
    // deltas reset per entry. A chunk boundary can split an entry, so the
    // running sums and the entry walk persist across iterations.
    const uint32_t* d = delta_scratch->data();
    for (size_t avail = take; avail > 0;) {
      while (refs[ei].header.pos_count == done_in_entry) {
        ++ei;
        done_in_entry = 0;
#if defined(__SSE2__)
        sum = _mm_setzero_si128();
#else
        off = sent = para = 0;
#endif
      }
      const uint32_t run = static_cast<uint32_t>(std::min<uint64_t>(
          refs[ei].header.pos_count - done_in_entry, avail));
      for (uint32_t r = 0; r < run; ++r, d += 3, ob += sizeof(PositionInfo)) {
#if defined(__SSE2__)
        // 16-byte load of the delta triple (lane 3 is the next triple's
        // first word), add onto the running sums, 16-byte store whose
        // stray lane the next store — or the arena headroom — absorbs.
        sum = _mm_add_epi32(
            sum, _mm_loadu_si128(reinterpret_cast<const __m128i*>(d)));
        _mm_storeu_si128(reinterpret_cast<__m128i*>(ob), sum);
#else
        off += d[0];
        sent += d[1];
        para += d[2];
        *reinterpret_cast<PositionInfo*>(ob) = PositionInfo{off, sent, para};
#endif
      }
      done_in_entry += run;
      avail -= run;
    }
    left -= take;
  }
  positions->resize(total);  // drop the headroom slot; capacity kept
  if (p != region_end) {
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

BlockPostingList BlockPostingList::FromParts(uint32_t block_size,
                                             uint64_t num_entries,
                                             uint64_t total_positions,
                                             std::vector<SkipEntry> skips,
                                             std::string_view data,
                                             std::vector<uint32_t> checksums) {
  BlockPostingList out(block_size);
  out.num_entries_ = num_entries;
  out.total_positions_ = total_positions;
  out.skips_ = std::move(skips);
  // An empty slice must still present a non-null view so data() does not
  // fall back to owned_ (harmless today, but keep the invariant tight).
  out.view_ = data.data() != nullptr ? data : std::string_view("", 0);
  out.block_checksums_ = std::move(checksums);
  if (!out.skips_.empty()) {
    out.block_verified_ =
        std::make_unique<std::atomic<uint8_t>[]>(out.skips_.size());
    for (size_t b = 0; b < out.skips_.size(); ++b) {
      out.block_verified_[b].store(0, std::memory_order_relaxed);
    }
  }
  return out;
}

uint64_t BlockPostingList::NextUid() {
  static std::atomic<uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

BlockListCursor& BlockListCursor::operator=(BlockListCursor&& o) noexcept {
  list_ = o.list_;
  counters_ = o.counters_;
  cache_ = o.cache_;
  tombstones_ = o.tombstones_;
  const bool own_arena = o.entries_ == &o.arena_;
  arena_ = std::move(o.arena_);
  cached_ = std::move(o.cached_);
  entries_ = o.entries_ == nullptr ? nullptr
                                   : (own_arena ? &arena_ : &cached_->entries);
  positions_ = std::move(o.positions_);
  positions_for_ = o.positions_for_;
  bulk_positions_ = std::move(o.bulk_positions_);
  bulk_offsets_ = std::move(o.bulk_offsets_);
  delta_scratch_ = std::move(o.delta_scratch_);
  bulk_block_ = o.bulk_block_;
  bulk_from_ = o.bulk_from_;
  bulk_to_ = o.bulk_to_;
  bulk_span_ = o.bulk_span_;
  last_pos_block_ = o.last_pos_block_;
  last_pos_idx_ = o.last_pos_idx_;
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
  // Lists with more blocks than the per-query cache can hold would cycle
  // its LRU on every sequential pass — all misses, plus allocation and
  // bookkeeping on each — so they bypass L1. When a cross-query L2 is
  // attached they still read through it (that is where cold mmap traffic
  // amortizes decode + first-touch validation across queries) unless they
  // would cycle the L2 too; only then does the cursor fall back to its
  // private arena.
  SharedBlockCache* shared = cache_ != nullptr ? cache_->shared() : nullptr;
  if (cache_ != nullptr && list_->num_blocks() <= cache_->capacity()) {
    Status s;
    cached_ = cache_->GetOrDecode(*list_, block, counters_, &s);
    if (cached_ == nullptr) {
      // Under first-touch validation a decode failure is lazily detected
      // corruption: record it and fail closed by exhausting.
      if (!s.ok() && status_.ok()) status_ = std::move(s);
      return false;
    }
    entries_ = &cached_->entries;
  } else if (shared != nullptr &&
             list_->num_blocks() <= shared->capacity_blocks()) {
    Status s;
    cached_ = shared->GetOrDecode(*list_, block, counters_, &s);
    if (cached_ == nullptr) {
      if (!s.ok() && status_.ok()) status_ = std::move(s);
      return false;
    }
    entries_ = &cached_->entries;
  } else {
    Status s = list_->DecodeBlockEntries(block, &arena_, counters_);
    if (!s.ok()) {
      if (status_.ok()) status_ = std::move(s);
      return false;
    }
    if (arena_.empty()) return false;
    if (counters_ != nullptr) {
      ++counters_->blocks_decoded;
      ++counters_->blocks_bulk_decoded;
      counters_->entries_decoded += arena_.size();
    }
    entries_ = &arena_;
  }
  if (counters_ != nullptr && !was_verified && list_->BlockVerified(block)) {
    ++counters_->first_touch_validations;
  }
  block_ = block;
  positions_for_ = SIZE_MAX;
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

std::span<const PositionInfo> BlockListCursor::GetPositionsSlow() {
  assert(started_ && !exhausted_);
  if (positions_for_ != idx_) {
    // Two consecutive entries' positions in one block predict a
    // positions-heavy walk of the rest of it: decode the remaining tail in
    // one contiguous pass (bitset blocks concatenate position bytes
    // exactly so the SIMD kernel never stops at entry boundaries).
    // Selective access — one phrase match per block — never streaks, so it
    // keeps strict per-entry laziness.
    const bool consec = last_pos_block_ == block_ && last_pos_idx_ + 1 == idx_;
    streak_len_ = consec ? streak_len_ + 1 : 1;
    last_pos_block_ = block_;
    last_pos_idx_ = idx_;
    // `continuing` = the walk just crossed the end of the previous bulk
    // range (whose entries were served by the inline fast path, so
    // streak_len_ did not advance across them).
    const bool continuing = bulk_block_ == block_ && idx_ == bulk_to_;
    if ((continuing || streak_len_ >= kBulkStreakTrigger) &&
        idx_ + 1 < entries_->size() &&
        list_->skip(block_).encoding == BlockPostingList::kEncodingBitset) {
      // Geometric span growth: a continuing walk doubles the previous
      // span; a fresh streak starts small.
      const uint32_t span = continuing ? bulk_span_ * 2 : kBulkSpanInitial;
      const size_t to = std::min(entries_->size(), idx_ + span);
      if (list_->DecodeBlockPositionsBulk(block_entries(), idx_, to,
                                          &delta_scratch_, &bulk_positions_,
                                          &bulk_offsets_, counters_)
              .ok()) {
        bulk_block_ = block_;
        bulk_from_ = idx_;
        bulk_to_ = to;
        bulk_span_ = span;
        if (counters_ != nullptr) {
          counters_->positions_decoded += bulk_positions_.size();
        }
        return {bulk_positions_.data(), bulk_offsets_[1]};
      }
      // Bulk refused (structural anomaly): fall through so the per-entry
      // path re-surfaces the exact Corruption its first-touch checks
      // would have reported.
    }
    Status s = list_->DecodePositions((*entries_)[idx_], &positions_, counters_);
    if (!s.ok()) {
      // Structurally inconsistent position bytes (reachable only when a
      // crafted file defeats the checksums): report through status() and
      // hand back an empty PosList — fail closed, never partial garbage.
      positions_.clear();
      if (status_.ok()) status_ = std::move(s);
    }
    positions_for_ = idx_;
    if (counters_ != nullptr) counters_->positions_decoded += positions_.size();
  }
  return {positions_.data(), positions_.size()};
}

}  // namespace fts
