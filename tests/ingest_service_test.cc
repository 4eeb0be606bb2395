// IngestService lifecycle semantics, single-threaded: the empty first
// generation, Add/Refresh visibility (buffered documents become queryable
// at the seal), Delete's copy-on-write tombstones and generation
// immutability (a held snapshot keeps serving the pre-delete corpus),
// Compact's dense renumbering, and segment spilling to ordinary index files
// that LoadSnapshotFromFile serves back. The concurrent contract lives in
// ingest_query_hammer_test.cc.

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "eval/searcher.h"
#include "exec/exec_context.h"
#include "exec/ingest_service.h"
#include "index/index_io.h"

namespace fts {
namespace {

/// Evaluates `query` over the service's current generation and returns the
/// global node ids.
std::vector<NodeId> QueryNodes(const IngestService& service,
                               const std::string& query) {
  Searcher searcher(service.snapshot(), {});
  ExecContext ctx;
  auto r = searcher.Search(query, ctx);
  EXPECT_TRUE(r.ok()) << query << ": " << r.status().ToString();
  return r.ok() ? r->result.nodes : std::vector<NodeId>{};
}

std::vector<NodeId> QueryNodes(std::shared_ptr<const IndexSnapshot> snapshot,
                               const std::string& query) {
  Searcher searcher(std::move(snapshot), {});
  ExecContext ctx;
  auto r = searcher.Search(query, ctx);
  EXPECT_TRUE(r.ok()) << query << ": " << r.status().ToString();
  return r.ok() ? r->result.nodes : std::vector<NodeId>{};
}

using Nodes = std::vector<NodeId>;

TEST(IngestServiceTest, EmptyFirstGenerationServesEmptyResults) {
  IngestService service;
  auto snapshot = service.snapshot();
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->num_segments(), 0u);
  EXPECT_EQ(snapshot->total_nodes(), 0u);
  // Queries before the first seal see an empty corpus, not an error.
  EXPECT_EQ(QueryNodes(service, "'a'"), Nodes{});
  EXPECT_EQ(QueryNodes(service, "'a' AND 'b'"), Nodes{});
  EXPECT_TRUE(service.merger_status().ok());
}

TEST(IngestServiceTest, AddRefreshDeleteCompactLifecycle) {
  IngestService::Options options;
  options.max_buffered_docs = 4;   // auto-seal on the fourth Add
  options.merge_factor = 100;      // keep the background merger out of this
  IngestService service(options);

  // Predicted global ids are assigned in submission order.
  const char* docs[] = {"a b", "b c", "c d", "a d", "a e", "b e"};
  for (uint64_t i = 0; i < 6; ++i) {
    auto id = service.Add(docs[i]);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    EXPECT_EQ(*id, i);
  }

  // The fourth Add auto-sealed; docs 4 and 5 are still buffered and thus
  // invisible and not yet addressable for deletion.
  EXPECT_EQ(service.snapshot()->total_nodes(), 4u);
  EXPECT_EQ(QueryNodes(service, "'e'"), Nodes{});
  EXPECT_FALSE(service.Delete(4).ok());

  ASSERT_TRUE(service.Refresh().ok());
  EXPECT_EQ(service.snapshot()->total_nodes(), 6u);
  EXPECT_EQ(service.snapshot()->num_segments(), 2u);
  EXPECT_EQ(QueryNodes(service, "'e'"), (Nodes{4, 5}));
  EXPECT_EQ(QueryNodes(service, "'a'"), (Nodes{0, 3, 4}));

  // An empty-buffer Refresh publishes nothing new.
  const uint64_t generation = service.snapshot()->generation();
  ASSERT_TRUE(service.Refresh().ok());
  EXPECT_EQ(service.snapshot()->generation(), generation);

  // Delete is copy-on-write: the held pre-delete generation still serves
  // document 0, only new snapshots see the tombstone.
  auto before_delete = service.snapshot();
  ASSERT_TRUE(service.Delete(0).ok());
  EXPECT_EQ(QueryNodes(service, "'a'"), (Nodes{3, 4}));
  EXPECT_EQ(QueryNodes(before_delete, "'a'"), (Nodes{0, 3, 4}));
  EXPECT_EQ(service.snapshot()->live_nodes(), 5u);

  // Deleting an already deleted or out-of-range id.
  ASSERT_TRUE(service.Delete(0).ok());  // no-op
  EXPECT_FALSE(service.Delete(100).ok());

  // Compact drops the tombstoned document and renumbers survivors densely:
  // original ids 1..5 become 0..4.
  ASSERT_TRUE(service.Compact().ok());
  EXPECT_EQ(service.snapshot()->num_segments(), 1u);
  EXPECT_EQ(service.snapshot()->total_nodes(), 5u);
  EXPECT_EQ(service.snapshot()->live_nodes(), 5u);
  EXPECT_EQ(QueryNodes(service, "'a'"), (Nodes{2, 3}));
  EXPECT_EQ(QueryNodes(service, "'e'"), (Nodes{3, 4}));
  EXPECT_TRUE(service.merger_status().ok());
}

TEST(IngestServiceTest, SpilledSegmentsAreOrdinaryIndexFiles) {
  const std::string dir = ::testing::TempDir() + "/fts_ingest_spill";
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(std::filesystem::create_directories(dir));

  IngestService::Options options;
  options.merge_factor = 100;
  options.spill_dir = dir;
  IngestService service(options);
  ASSERT_TRUE(service.Add("a b c").ok());
  ASSERT_TRUE(service.Add("b c d").ok());
  ASSERT_TRUE(service.Refresh().ok());

  // The sealed segment landed as segment-0.fts (write-then-rename, so no
  // .tmp leftovers) and loads back as a one-segment snapshot serving the
  // same documents.
  const std::string path = dir + "/segment-0.fts";
  ASSERT_TRUE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  auto loaded = LoadSnapshotFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->num_segments(), 1u);
  EXPECT_EQ((*loaded)->total_nodes(), 2u);
  EXPECT_EQ(QueryNodes(*loaded, "'b'"), (Nodes{0, 1}));
  EXPECT_EQ(QueryNodes(*loaded, "'a'"), Nodes{0});
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace fts
