// Quickstart: build a corpus, index it, and run queries from every language
// class through the Searcher.
//
//   $ ./quickstart
//
// Demonstrates the core public API: Corpus -> IndexBuilder -> Searcher.

#include <cstdio>

#include "eval/searcher.h"
#include "index/index_builder.h"
#include "text/corpus.h"

int main() {
  // 1. A corpus of context nodes (documents here; could be tuples or XML
  //    elements — the language never looks outside one node).
  fts::Corpus corpus;
  corpus.AddDocument(
      "Usability of a software measures how well the software supports "
      "achieving an efficient software task completion.");
  corpus.AddDocument("Software testing is the study of test suites. "
                     "Usability testing measures user efficiency.");
  corpus.AddDocument("An unrelated note about gardening and tomatoes.");
  corpus.AddDocument("Efficient algorithms for full text search. "
                     "Task completion time matters.");

  // 2. Build the inverted index (posting lists + IL_ANY + statistics).
  fts::InvertedIndex index = fts::IndexBuilder::Build(corpus);
  std::printf("indexed %zu nodes, %zu distinct tokens\n", index.num_nodes(),
              index.vocabulary_size());
  std::printf("index shape: %s\n\n", index.stats().ToString().c_str());

  // 3. Route queries: the Searcher classifies each query into the cheapest
  //    language class (BOOL < PPRED < NPRED < COMP) and picks the engine.
  //    One index is served through its one-segment snapshot; per-query
  //    state (caches, counters, deadline, top-k) lives in an ExecContext.
  const fts::Searcher searcher(fts::IndexSnapshot::ForIndex(&index),
                               {fts::ScoringKind::kTfIdf});
  const char* queries[] = {
      // Boolean keyword search (BOOL engine, list merges).
      "'software' AND 'usability'",
      "'software' AND NOT 'testing'",
      // Proximity search (PPRED engine, single scan with skips).
      "SOME p SOME q (p HAS 'task' AND q HAS 'completion' AND odistance(p, q, 0))",
      // Negated proximity (NPRED engine, one scan per cursor ordering).
      "SOME p SOME q (p HAS 'software' AND q HAS 'usability' AND "
      "not_distance(p, q, 3))",
      // Full first-order power (COMP engine, materialized algebra).
      "EVERY p (NOT p HAS 'tomatoes')",
  };

  for (const char* q : queries) {
    fts::ExecContext ctx;
    auto routed = searcher.Search(q, ctx);
    if (!routed.ok()) {
      std::printf("query failed: %s\n  %s\n", q, routed.status().ToString().c_str());
      return 1;
    }
    std::printf("query:  %s\n", q);
    std::printf("class:  %s (engine %s)\n",
                fts::LanguageClassToString(routed->language_class),
                routed->engine.c_str());
    std::printf("nodes: ");
    for (size_t i = 0; i < routed->result.nodes.size(); ++i) {
      std::printf(" %u(score %.4f)", routed->result.nodes[i],
                  routed->result.scores.empty() ? 0.0 : routed->result.scores[i]);
    }
    std::printf("\ncost:   %s\n\n", routed->result.counters.ToString().c_str());
  }
  return 0;
}
