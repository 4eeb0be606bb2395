// SearchService tests: correctness vs a direct router, batch ordering,
// bounded-queue back-pressure, shutdown semantics, per-query deadlines,
// and service-level metrics aggregation.

#include "exec/search_service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "eval/searcher.h"
#include "index/index_builder.h"
#include "text/corpus.h"
#include "workload/corpus_gen.h"

namespace fts {
namespace {

InvertedIndex SmallIndex() {
  Corpus corpus;
  corpus.AddDocument("apple banana cherry. apple date apple.\n\n banana fig.");
  corpus.AddDocument("banana cherry date. elderberry fig grape.");
  corpus.AddDocument("apple cherry elderberry. apple banana grape.");
  corpus.AddDocument("date fig. grape apple. cherry banana date.");
  corpus.AddDocument("elderberry. apple date cherry fig banana grape.");
  return IndexBuilder::Build(corpus);
}

TEST(SearchServiceTest, MatchesDirectSearcherEvaluation) {
  InvertedIndex index = SmallIndex();
  SearchService::Options options;
  options.num_workers = 4;
  options.scoring = ScoringKind::kTfIdf;
  SearchService service(&index, options);
  const Searcher reference(IndexSnapshot::ForIndex(&index), {ScoringKind::kTfIdf});

  const std::vector<std::string> queries = {
      "'apple'",
      "'apple' AND 'banana'",
      "'cherry' OR ('date' AND NOT 'fig')",
      "SOME p1 SOME p2 (p1 HAS 'apple' AND p2 HAS 'banana' AND "
      "distance(p1, p2, 4))",
      "SOME p1 SOME p2 (p1 HAS 'apple' AND p2 HAS 'cherry' AND "
      "NOT samesentence(p1, p2))",
      "EVERY p (p HAS 'apple' OR p HAS ANY)",
  };
  for (const std::string& q : queries) {
    ExecContext ctx;
    auto expected = reference.Search(q, ctx);
    ASSERT_TRUE(expected.ok()) << q;
    auto got = service.Search(q);
    ASSERT_TRUE(got.ok()) << q << ": " << got.status().ToString();
    EXPECT_EQ(got->result.nodes, expected->result.nodes) << q;
    EXPECT_EQ(got->result.scores, expected->result.scores) << q;
    EXPECT_EQ(got->engine, expected->engine) << q;
  }
}

TEST(SearchServiceTest, BatchResultsAlignPositionally) {
  InvertedIndex index = SmallIndex();
  SearchService::Options options;
  options.num_workers = 3;
  SearchService service(&index, options);

  // Distinguishable result cardinalities so a positional mixup is caught.
  const std::vector<std::string> queries = {"'apple'", "'elderberry'",
                                            "'apple' AND 'banana'",
                                            "'nosuchtoken'", "'fig'"};
  const Searcher reference(IndexSnapshot::ForIndex(&index));
  auto results = service.SearchBatch(queries);
  ASSERT_EQ(results.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << queries[i];
    ExecContext ctx;
    auto expected = reference.Search(queries[i], ctx);
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ(results[i]->result.nodes, expected->result.nodes) << queries[i];
  }
}

TEST(SearchServiceTest, ParseErrorsFailTheFutureNotTheService) {
  InvertedIndex index = SmallIndex();
  SearchService service(&index);
  auto bad = service.Search("((('");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  // The worker survives a failed query.
  auto good = service.Search("'apple'");
  ASSERT_TRUE(good.ok());
  EXPECT_FALSE(good->result.nodes.empty());
  const ServiceMetricsSnapshot m = service.metrics();
  EXPECT_EQ(m.failed, 1u);
  EXPECT_EQ(m.completed, 1u);
}

TEST(SearchServiceTest, ShutdownDrainsAcceptedWorkThenRefuses) {
  InvertedIndex index = SmallIndex();
  SearchService::Options options;
  options.num_workers = 2;
  SearchService service(&index, options);

  std::vector<std::future<StatusOr<RoutedResult>>> futures;
  for (int i = 0; i < 32; ++i) futures.push_back(service.Submit("'apple'"));
  service.Shutdown();
  // Every accepted query completed despite the shutdown racing the queue.
  for (auto& f : futures) {
    auto r = f.get();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  // New work is refused...
  auto refused = service.Search("'apple'");
  EXPECT_EQ(refused.status().code(), StatusCode::kUnavailable);
  auto try_refused = service.TrySubmit("'apple'");
  EXPECT_FALSE(try_refused.has_value());
  EXPECT_GE(service.metrics().rejected, 2u);
  // ...and Shutdown is idempotent.
  service.Shutdown();
}

TEST(SearchServiceTest, TrySubmitShedsLoadWhenQueueFull) {
  InvertedIndex index = SmallIndex();
  SearchService::Options options;
  options.num_workers = 1;
  options.queue_capacity = 2;
  SearchService service(&index, options);

  // Saturate: one worker, tiny queue, a burst of submissions from several
  // producer threads. Some TrySubmits must be refused (the queue holds at
  // most 2), and every accepted future must still resolve.
  std::atomic<int> accepted{0}, refused{0};
  std::vector<std::thread> producers;
  std::mutex futures_mu;
  std::vector<std::future<StatusOr<RoutedResult>>> futures;
  for (int t = 0; t < 4; ++t) {
    producers.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        auto f = service.TrySubmit("'apple' AND 'banana'");
        if (f.has_value()) {
          ++accepted;
          std::lock_guard<std::mutex> lock(futures_mu);
          futures.push_back(std::move(*f));
        } else {
          ++refused;
        }
      }
    });
  }
  for (std::thread& p : producers) p.join();
  for (auto& f : futures) EXPECT_TRUE(f.get().ok());
  EXPECT_EQ(accepted.load() + refused.load(), 200);
  EXPECT_GT(accepted.load(), 0);
  const ServiceMetricsSnapshot m = service.metrics();
  EXPECT_EQ(m.submitted, static_cast<uint64_t>(accepted.load()));
  EXPECT_EQ(m.rejected, static_cast<uint64_t>(refused.load()));
  EXPECT_LE(m.peak_queue_depth, 2u);
}

TEST(SearchServiceTest, RequestTimeoutBoundsTheQuery) {
  InvertedIndex index = SmallIndex();
  SearchService::Options options;
  options.num_workers = 1;
  SearchService service(&index, options);
  SearchService::RequestOptions request;
  request.timeout = std::chrono::nanoseconds(1);  // expired on arrival
  auto r = service.Submit("'apple' AND 'banana'", request).get();
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(service.metrics().failed, 1u);
  // The worker's context is reused: the next query without a timeout must
  // not inherit the expired deadline.
  auto next = service.Search("'apple' AND 'banana'");
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ(service.metrics().completed, 1u);
}

TEST(SearchServiceTest, MetricsMergeCountersAcrossQueries) {
  InvertedIndex index = SmallIndex();
  SearchService::Options options;
  options.num_workers = 2;
  SearchService service(&index, options);

  auto a = service.Search("'apple'");
  auto b = service.Search("'banana' AND 'cherry'");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  const ServiceMetricsSnapshot m = service.metrics();
  EXPECT_EQ(m.submitted, 2u);
  EXPECT_EQ(m.completed, 2u);
  EXPECT_EQ(m.failed, 0u);
  // Service totals are the MergeFrom of the per-query counters.
  EXPECT_EQ(m.totals.entries_scanned, a->result.counters.entries_scanned +
                                          b->result.counters.entries_scanned);
  EXPECT_GT(m.totals.entries_scanned, 0u);
}

TEST(SearchServiceTest, SharedCacheAmortizesAcrossWorkers) {
  // A bigger corpus so lists span multiple blocks, making the L2's effect
  // visible: after a warm-up batch, repeat batches decode nothing.
  CorpusGenOptions gen;
  gen.seed = 99;
  gen.num_nodes = 400;
  gen.vocabulary = 500;
  gen.num_topic_tokens = 4;
  Corpus corpus = GenerateCorpus(gen);
  InvertedIndex index = IndexBuilder::Build(corpus);

  SearchService::Options options;
  options.num_workers = 4;
  SearchService service(&index, options);
  ASSERT_NE(service.shared_cache(), nullptr);

  const std::vector<std::string> batch(8, "'topic0' AND 'topic1'");
  for (auto& r : service.SearchBatch(batch)) ASSERT_TRUE(r.ok());
  const uint64_t decoded_after_warmup = service.metrics().totals.blocks_decoded;
  EXPECT_GT(decoded_after_warmup, 0u);

  for (auto& r : service.SearchBatch(batch)) ASSERT_TRUE(r.ok());
  const ServiceMetricsSnapshot m = service.metrics();
  // Warm batch: all block loads served from cache (L1 or L2), zero decode.
  EXPECT_EQ(m.totals.blocks_decoded, decoded_after_warmup);
  EXPECT_GT(m.totals.shared_cache_hits + m.totals.cache_hits, 0u);
  EXPECT_GT(service.shared_cache()->stats().resident_blocks, 0u);
}

}  // namespace
}  // namespace fts
