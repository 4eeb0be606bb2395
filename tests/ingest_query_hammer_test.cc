// Concurrent ingest + query hammer: the liveness and retirement half of
// the segment architecture's contract (docs/ingestion.md). While writer
// threads Add/Delete/Refresh/Compact against an IngestService — with the
// background merger compacting underneath — query threads drive a
// SearchService bound to the same SnapshotSource. Every query must
// complete successfully against whichever generation it acquired at
// dequeue (well-formed: strictly ascending global ids, one score per
// node), no query ever blocks on ingest or a snapshot swap (asserted by
// forward progress: queries keep completing while a writer sits in
// synchronous Compact loops), and an old generation retires — frees its
// segments — exactly when the last query holding it drains, proven with a
// weak_ptr observer. Under ThreadSanitizer (the CI tsan job) this is the
// data-race proof for the writer mutex / leaf snapshot lock / refcounted
// generation design.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <iterator>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "exec/ingest_service.h"
#include "exec/search_service.h"
#include "index/index_snapshot.h"

#include "random_workload.h"

namespace fts {
namespace {

constexpr int kQueryThreads = 4;
constexpr auto kRunFor = std::chrono::milliseconds(400);

/// A short random document over the shared test vocabulary.
std::string RandomDoc(Rng* rng) {
  std::string doc;
  const uint64_t len = rng->UniformRange(3, 10);
  for (uint64_t i = 0; i < len; ++i) {
    if (!doc.empty()) doc += ' ';
    doc += RandomWorkloadToken(rng);
  }
  return doc;
}

/// The query mix: conjunctions, disjunctions, and a negation over the same
/// vocabulary, so results are non-trivial at every generation.
const char* RandomQuery(Rng* rng) {
  static const char* kQueries[] = {
      "'a'",          "'a' AND 'b'",        "'b' OR 'c'",
      "'c' AND 'd'",  "'d' OR ('e' AND 'f')", "'e' AND (NOT 'a')",
  };
  return kQueries[rng->Uniform(std::size(kQueries))];
}

/// One well-formedness check per result: ids strictly ascending (the
/// per-segment concatenation contract) and scores aligned with nodes.
void CheckResult(const StatusOr<RoutedResult>& r, const std::string& query,
                 std::vector<std::string>* failures, std::mutex* mu) {
  std::string failure;
  if (!r.ok()) {
    failure = "status " + r.status().ToString();
  } else {
    const auto& nodes = r->result.nodes;
    for (size_t i = 1; i < nodes.size(); ++i) {
      if (nodes[i - 1] >= nodes[i]) {
        failure = "ids not strictly ascending";
        break;
      }
    }
    if (failure.empty() && !r->result.scores.empty() &&
        r->result.scores.size() != nodes.size()) {
      failure = "scores misaligned with nodes";
    }
  }
  if (!failure.empty()) {
    std::lock_guard<std::mutex> lock(*mu);
    failures->push_back(query + ": " + failure);
  }
}

TEST(IngestQueryHammer, QueriesServeAcrossGenerationsAndOldOnesRetire) {
  IngestService::Options ingest_options;
  ingest_options.max_buffered_docs = 8;  // frequent seals -> many generations
  ingest_options.merge_factor = 4;       // background merger kicks in early
  IngestService ingest(ingest_options);

  SearchService::Options serve_options;
  serve_options.num_workers = 4;
  serve_options.scoring = ScoringKind::kTfIdf;
  SearchService service(&ingest, serve_options);

  // Seed one generation and keep a weak observer on it: by the end of the
  // run many newer generations exist, so it must have been freed once the
  // last query holding it drained.
  {
    Rng rng(99);
    for (int i = 0; i < 8; ++i) ASSERT_TRUE(ingest.Add(RandomDoc(&rng)).ok());
    ASSERT_TRUE(ingest.Refresh().ok());
  }
  std::weak_ptr<const IndexSnapshot> early_generation;
  {
    auto held = ingest.snapshot();
    ASSERT_GT(held->total_nodes(), 0u);
    early_generation = held;
  }

  std::atomic<bool> stop{false};
  std::mutex failures_mu;
  std::vector<std::string> failures;
  std::atomic<uint64_t> queries_done{0};

  // Writer: a steady stream of adds with occasional deletes and explicit
  // refreshes. Deletes target ids from a just-acquired snapshot; a
  // concurrent compaction can invalidate the id (generation-relative
  // semantics), so InvalidArgument is tolerated — any other failure is not.
  std::thread writer([&] {
    Rng rng(4242);
    while (!stop.load(std::memory_order_relaxed)) {
      auto id = ingest.Add(RandomDoc(&rng));
      if (!id.ok()) {
        std::lock_guard<std::mutex> lock(failures_mu);
        failures.push_back("Add: " + id.status().ToString());
        return;
      }
      if (rng.Bernoulli(0.15)) {
        auto snapshot = ingest.snapshot();
        if (snapshot->total_nodes() > 0) {
          const Status s = ingest.Delete(rng.Uniform(snapshot->total_nodes()));
          if (!s.ok() && s.code() != StatusCode::kInvalidArgument) {
            std::lock_guard<std::mutex> lock(failures_mu);
            failures.push_back("Delete: " + s.ToString());
            return;
          }
        }
      }
      if (rng.Bernoulli(0.1)) {
        const Status s = ingest.Refresh();
        if (!s.ok()) {
          std::lock_guard<std::mutex> lock(failures_mu);
          failures.push_back("Refresh: " + s.ToString());
          return;
        }
      }
    }
  });

  // Compactor: synchronous full compactions in a loop. Compact holds the
  // writer mutex for the whole merge — queries must keep completing
  // regardless (they only touch the leaf snapshot lock).
  std::thread compactor([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const Status s = ingest.Compact();
      if (!s.ok()) {
        std::lock_guard<std::mutex> lock(failures_mu);
        failures.push_back("Compact: " + s.ToString());
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });

  std::vector<std::thread> queriers;
  for (int t = 0; t < kQueryThreads; ++t) {
    queriers.emplace_back([&, t] {
      Rng rng(1000 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        const std::string query = RandomQuery(&rng);
        CheckResult(service.Search(query), query, &failures, &failures_mu);
        queries_done.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  std::this_thread::sleep_for(kRunFor);
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  compactor.join();
  for (std::thread& q : queriers) q.join();

  for (const std::string& f : failures) ADD_FAILURE() << f;
  EXPECT_GT(queries_done.load(), 0u);
  EXPECT_TRUE(ingest.merger_status().ok())
      << ingest.merger_status().ToString();

  // Retirement: drain the service (joins workers, so every per-query
  // Searcher — and the generation it pinned — is gone). The early
  // generation has long been superseded, so nothing references it now.
  service.Shutdown();
  EXPECT_GT(ingest.snapshot()->generation(), 1u);
  EXPECT_TRUE(early_generation.expired())
      << "a superseded generation is still pinned after all queries drained";

  const ServiceMetricsSnapshot m = service.metrics();
  EXPECT_EQ(m.completed + m.failed, m.submitted);
  EXPECT_EQ(m.failed, 0u);
}

}  // namespace
}  // namespace fts
