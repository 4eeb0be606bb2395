// Concurrent shared-index evaluation, pinned bit-identical to
// single-threaded.
//
// The serving model (docs/threading.md) claims an InvertedIndex is
// immutable after load and every engine is safe to share across threads,
// with all mutable state in per-thread ExecContexts and the sharded
// SharedBlockCache. This suite runs a slice of the differential harness's
// workload (same generators: testing/random_workload.h) from N threads
// against one shared index — in both storage modes (heap and mmap with
// lazy first-touch validation) and all three cursor modes — and asserts
// that every thread's nodes AND scores are bit-identical to a
// single-threaded baseline. Under ThreadSanitizer (the CI tsan job) this
// doubles as the data-race proof for the shared read path: concurrent
// first-touch validation memoization, shared L2 lookups/evictions, and
// shared engine/router state.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "eval/router.h"
#include "exec/search_service.h"
#include "index/index_builder.h"
#include "index/index_io.h"
#include "index/shared_block_cache.h"
#include "testing/random_workload.h"
#include "text/corpus.h"

namespace fts {
namespace {

constexpr int kThreads = 8;

/// Round-trips `src` through a temp file and loads it back mmap'd with
/// lazy first-touch validation (file removed immediately; the mapping pins
/// the inode).
InvertedIndex LoadMmapTwin(const InvertedIndex& src, const std::string& tag) {
  const std::string path =
      ::testing::TempDir() + "/fts_conc_mmap_" + tag + ".idx";
  EXPECT_TRUE(SaveIndexToFile(src, path).ok());
  LoadOptions options;
  options.mode = LoadOptions::Mode::kMmap;
  InvertedIndex twin;
  EXPECT_TRUE(LoadIndexFromFile(path, &twin, options).ok());
  std::remove(path.c_str());
  EXPECT_TRUE(twin.lazy_validation());
  return twin;
}

/// The workload slice: a seeded corpus plus random queries from every
/// engine's language class (generators shared with the 240-combo
/// differential harness).
struct Workload {
  Corpus corpus;
  std::vector<LangExprPtr> queries;
};

Workload MakeWorkload(uint64_t seed) {
  Workload w;
  Rng rng(seed * 7919 + 17);
  w.corpus = RandomWorkloadCorpus(&rng, 30, 6);
  for (int i = 0; i < 6; ++i) w.queries.push_back(RandomBoolQuery(&rng, 3));
  for (int i = 0; i < 4; ++i) {
    w.queries.push_back(RandomPipelinedQuery(&rng, /*allow_negative=*/false));
  }
  for (int i = 0; i < 3; ++i) {
    w.queries.push_back(RandomPipelinedQuery(&rng, /*allow_negative=*/true));
  }
  return w;
}

struct Baseline {
  std::vector<NodeId> nodes;
  std::vector<double> scores;
  std::string engine;
};

/// Evaluates every query once, single-threaded, through a fresh router
/// with no shared cache — the reference the threads are pinned against.
std::vector<Baseline> SingleThreadedBaseline(const QueryRouter& router,
                                             const std::vector<LangExprPtr>& queries) {
  std::vector<Baseline> out;
  for (const LangExprPtr& q : queries) {
    auto r = router.EvaluateParsed(q);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    Baseline b;
    if (r.ok()) {
      b.nodes = r->result.nodes;
      b.scores = r->result.scores;
      b.engine = r->engine;
    }
    out.push_back(std::move(b));
  }
  return out;
}

/// Runs `queries` from kThreads threads against `router` (one ExecContext
/// per thread) and records any divergence from `baseline`. Threads repeat
/// the set `rounds` times so later rounds hit warm L1/L2 state — the
/// cache-served path must be as bit-identical as the cold one.
void HammerRouter(const QueryRouter& router,
                  const std::vector<LangExprPtr>& queries,
                  const std::vector<Baseline>& baseline, int rounds,
                  const char* what) {
  std::mutex failures_mu;
  std::vector<std::string> failures;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ExecContext ctx = router.MakeContext();
      for (int round = 0; round < rounds; ++round) {
        for (size_t i = 0; i < queries.size(); ++i) {
          auto r = router.EvaluateParsed(queries[i], ctx);
          std::string failure;
          if (!r.ok()) {
            failure = "status " + r.status().ToString();
          } else if (r->result.nodes != baseline[i].nodes) {
            failure = "nodes diverged";
          } else if (r->result.scores != baseline[i].scores) {
            // Bit-exact double comparison on purpose: same arithmetic,
            // same order, only the thread differs.
            failure = "scores diverged";
          } else if (r->engine != baseline[i].engine) {
            failure = "routed to " + r->engine + " not " + baseline[i].engine;
          }
          if (!failure.empty()) {
            std::lock_guard<std::mutex> lock(failures_mu);
            failures.push_back(std::string(what) + ": thread " +
                               std::to_string(t) + " query " +
                               std::to_string(i) + ": " + failure);
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const std::string& f : failures) ADD_FAILURE() << f;
}

class ConcurrentQuery : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ConcurrentQuery, ThreadsMatchSingleThreadedBaseline) {
  const Workload w = MakeWorkload(GetParam());
  InvertedIndex heap_index = IndexBuilder::Build(w.corpus);
  InvertedIndex mmap_index =
      LoadMmapTwin(heap_index, "base_" + std::to_string(GetParam()));

  const CursorMode kModes[] = {CursorMode::kSequential, CursorMode::kSeek,
                               CursorMode::kAdaptive};
  const std::pair<const InvertedIndex*, const char*> kStorage[] = {
      {&heap_index, "heap"}, {&mmap_index, "mmap"}};

  for (const auto& [index, storage] : kStorage) {
    for (CursorMode mode : kModes) {
      // Baseline: no L2, fresh context per query, one thread. TF-IDF
      // scoring so score arithmetic is part of the contract.
      QueryRouter reference(index, ScoringKind::kTfIdf, mode);
      const std::vector<Baseline> baseline =
          SingleThreadedBaseline(reference, w.queries);

      // Shared router with a (deliberately small, eviction-churning) L2.
      SharedBlockCache::Options cache_options;
      cache_options.capacity_blocks = 64;
      cache_options.shards = 4;
      RouterOptions options;
      options.scoring = ScoringKind::kTfIdf;
      options.mode = mode;
      options.shared_cache = std::make_shared<SharedBlockCache>(cache_options);
      QueryRouter shared(index, options);
      HammerRouter(shared, w.queries, baseline, /*rounds=*/2,
                   (std::string(storage) + "/" + CursorModeToString(mode)).c_str());
    }
  }
}

TEST_P(ConcurrentQuery, ColdMmapFirstTouchRace) {
  // All threads start on a freshly mapped index at once, so first-touch
  // validation of the same blocks races maximally (the memoization is
  // atomic; duplicate validation is benign). L2 shared from the first
  // decode on.
  const Workload w = MakeWorkload(GetParam());
  InvertedIndex heap_index = IndexBuilder::Build(w.corpus);
  InvertedIndex mmap_index =
      LoadMmapTwin(heap_index, "cold_" + std::to_string(GetParam()));

  QueryRouter reference(&mmap_index, ScoringKind::kProbabilistic,
                        CursorMode::kAdaptive);
  const std::vector<Baseline> baseline =
      SingleThreadedBaseline(reference, w.queries);

  // A second fresh twin so the hammer starts with every block unverified.
  InvertedIndex cold_index =
      LoadMmapTwin(heap_index, "cold2_" + std::to_string(GetParam()));
  RouterOptions options;
  options.scoring = ScoringKind::kProbabilistic;
  options.shared_cache = std::make_shared<SharedBlockCache>();
  QueryRouter shared(&cold_index, options);
  HammerRouter(shared, w.queries, baseline, /*rounds=*/1, "cold-mmap");
}

TEST_P(ConcurrentQuery, ServiceMatchesSingleThreadedBaseline) {
  // The same pinning through the SearchService worker pool: batch
  // submission fans the workload across workers (as strings — ToString()
  // emits the surface grammar); every future must carry the
  // single-threaded result of its parsed twin.
  const Workload w = MakeWorkload(GetParam());
  InvertedIndex index = IndexBuilder::Build(w.corpus);

  QueryRouter reference(&index, ScoringKind::kTfIdf, CursorMode::kAdaptive);
  const std::vector<Baseline> baseline =
      SingleThreadedBaseline(reference, w.queries);

  SearchService::Options options;
  options.num_workers = kThreads;
  options.scoring = ScoringKind::kTfIdf;
  SearchService service(&index, options);
  std::vector<std::string> texts;
  texts.reserve(w.queries.size());
  for (const LangExprPtr& q : w.queries) texts.push_back(q->ToString());
  for (int round = 0; round < 3; ++round) {
    std::vector<StatusOr<RoutedResult>> results = service.SearchBatch(texts);
    ASSERT_EQ(results.size(), baseline.size());
    for (size_t i = 0; i < results.size(); ++i) {
      ASSERT_TRUE(results[i].ok())
          << texts[i] << ": " << results[i].status().ToString();
      EXPECT_EQ(results[i]->result.nodes, baseline[i].nodes) << texts[i];
      EXPECT_EQ(results[i]->result.scores, baseline[i].scores) << texts[i];
      EXPECT_EQ(results[i]->engine, baseline[i].engine) << texts[i];
    }
  }
  const ServiceMetricsSnapshot m = service.metrics();
  EXPECT_EQ(m.submitted, 3 * texts.size());
  EXPECT_EQ(m.completed, 3 * texts.size());
  EXPECT_EQ(m.failed, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConcurrentQuery, ::testing::Values(1, 2, 5));

}  // namespace
}  // namespace fts
