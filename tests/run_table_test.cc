// The run table (index/run_table.h) on its own: a written table round-trips
// through FromBytes, Fill restores each position's sentence and paragraph,
// and every run whose offset does not increase is rejected, wherever it
// lies, on the one-byte path and on the record-by-record walk alike.

#include "index/run_table.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "common/varint.h"

namespace fts {
namespace {

/// Positions of `nodes` synthetic nodes: strictly increasing offsets with
/// sentence and paragraph changes every few tokens. `gap` is the largest
/// step between offsets (128 or more makes multi-byte runs).
std::vector<std::vector<PositionInfo>> MakeNodes(size_t nodes, uint32_t gap,
                                                 uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<PositionInfo>> out(nodes);
  for (auto& positions : out) {
    uint32_t offset = static_cast<uint32_t>(rng.Uniform(3));
    uint32_t sentence = 0, paragraph = 0;
    const size_t count = rng.Uniform(60);  // some nodes have no position
    for (size_t i = 0; i < count; ++i) {
      positions.push_back({offset, sentence, paragraph});
      offset += 1 + static_cast<uint32_t>(rng.Uniform(gap));
      if (rng.Uniform(4) == 0) ++sentence;
      if (rng.Uniform(12) == 0) ++paragraph;
    }
  }
  return out;
}

RunTable Write(const std::vector<std::vector<PositionInfo>>& nodes) {
  RunTableWriter writer(nodes.size(), 0);
  std::vector<uint8_t> runs;
  for (const auto& positions : nodes) {
    runs.clear();
    RunTable::EncodeRuns(positions, &runs);
    writer.AddNode({reinterpret_cast<const char*>(runs.data()), runs.size()});
  }
  return writer.Finish();
}

/// The byte offsets, within `bytes`, of every run record but each node's
/// first, found by walking the records.
std::vector<size_t> LaterRecordStarts(std::string_view bytes, size_t num_nodes) {
  const size_t records = 4 * (num_nodes + 1);
  std::vector<size_t> starts;
  for (size_t n = 0; n < num_nodes; ++n) {
    size_t at = records + LoadFixed32Le(bytes.data() + 4 * n);
    const size_t end = records + LoadFixed32Le(bytes.data() + 4 * (n + 1));
    for (bool first = true; at < end; first = false) {
      if (!first) starts.push_back(at);
      uint32_t ignored;
      for (int field = 0; field < 3; ++field) {
        EXPECT_TRUE(GetVarint32(bytes, &at, &ignored).ok());
      }
    }
  }
  return starts;
}

TEST(RunTableTest, FillRestoresEveryPosition) {
  for (const uint32_t gap : {4u, 300u}) {
    SCOPED_TRACE(gap);
    const auto nodes = MakeNodes(400, gap, 7);
    const RunTable written = Write(nodes);
    const std::string bytes(written.bytes());
    auto loaded = RunTable::FromBytes(bytes, nodes.size());
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    for (NodeId n = 0; n < nodes.size(); ++n) {
      std::vector<PositionInfo> got = nodes[n];
      for (PositionInfo& p : got) p.sentence = p.paragraph = 0;
      loaded->Fill(n, got);
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].sentence, nodes[n][i].sentence) << n << " " << i;
        EXPECT_EQ(got[i].paragraph, nodes[n][i].paragraph) << n << " " << i;
      }
    }
  }
}

TEST(RunTableTest, EveryNonIncreasingRunIsRejected) {
  // 1,500 nodes of one-byte runs span many 24-byte groups of the one-byte
  // path's word-at-a-time count and several of its counter folds (every
  // 255 groups); gap 300 forces multi-byte runs and the walk. Zeroing the
  // offset difference of any run but a node's first must fail the load.
  for (const uint32_t gap : {4u, 300u}) {
    SCOPED_TRACE(gap);
    const auto nodes = MakeNodes(1500, gap, 11);
    const std::string bytes(Write(nodes).bytes());
    ASSERT_TRUE(RunTable::FromBytes(bytes, nodes.size()).ok());
    bool one_byte = true;
    for (size_t i = 4 * (nodes.size() + 1); i < bytes.size(); ++i) {
      one_byte &= (static_cast<uint8_t>(bytes[i]) & 0x80) == 0;
    }
    ASSERT_EQ(one_byte, gap < 128);
    const std::vector<size_t> starts = LaterRecordStarts(bytes, nodes.size());
    ASSERT_GT(starts.size(), 2 * 255 * 8u);
    for (const size_t at : starts) {
      std::string damaged = bytes;
      // Only a one-byte difference can be zeroed in place.
      if (static_cast<uint8_t>(damaged[at]) & 0x80) continue;
      damaged[at] = '\0';
      const auto s = RunTable::FromBytes(damaged, nodes.size()).status();
      ASSERT_EQ(s.code(), StatusCode::kCorruption) << at;
      ASSERT_NE(s.message().find("run offsets not increasing"), std::string::npos)
          << at << ": " << s.ToString();
    }
  }
}

TEST(RunTableTest, ZeroFirstDifferencesOfManyNodesLoad) {
  // Every node's one run starts at offset 0: each record's difference is
  // zero and legal. 4,000 such records put a zero in every counter byte of
  // every group, well past the fold at 255 groups.
  const std::vector<std::vector<PositionInfo>> nodes(4000, {{0, 0, 0}});
  const std::string bytes(Write(nodes).bytes());
  const auto loaded = RunTable::FromBytes(bytes, nodes.size());
  EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
}

TEST(RunTableTest, MalformedRecordsAreRejected) {
  const auto nodes = MakeNodes(50, 4, 3);
  const std::string bytes(Write(nodes).bytes());
  const size_t records = 4 * (nodes.size() + 1);
  // A record byte with its high bit set runs the node's last varint into
  // the next node (or past the records).
  std::string damaged = bytes;
  damaged.back() = '\x80';
  EXPECT_EQ(RunTable::FromBytes(damaged, nodes.size()).status().code(),
            StatusCode::kCorruption);
  // A directory entry moved by one byte leaves two nodes with partial
  // records.
  for (size_t n = 1; n < nodes.size(); ++n) {
    const uint32_t begin = LoadFixed32Le(bytes.data() + 4 * n);
    if (begin == 0 || begin == bytes.size() - records) continue;
    damaged = bytes;
    StoreFixed32Le(damaged.data() + 4 * n, begin + 1);
    const auto s = RunTable::FromBytes(damaged, nodes.size()).status();
    EXPECT_EQ(s.code(), StatusCode::kCorruption) << n;
  }
}

}  // namespace
}  // namespace fts
