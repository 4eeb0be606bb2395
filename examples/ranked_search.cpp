// Ranked retrieval: the Section 3 scoring framework on a synthetic corpus,
// comparing TF-IDF (Section 3.1) and probabilistic (Section 3.2) ranking
// for the same Boolean and proximity queries, with top-k selection.

#include <cstdio>

#include "eval/searcher.h"
#include "index/index_builder.h"
#include "scoring/topk.h"
#include "workload/corpus_gen.h"

namespace {

void ShowTopK(const char* label, const fts::RoutedResult& routed, size_t k) {
  auto top = fts::TopK(routed.result.nodes, routed.result.scores, k);
  std::printf("  %-14s (%zu matches, engine %s):", label,
              routed.result.nodes.size(), routed.engine.c_str());
  for (const fts::ScoredNode& s : top) {
    std::printf("  #%u=%.4f", s.node, s.score);
  }
  std::printf("\n");
}

}  // namespace

int main() {
  // A reproducible synthetic corpus (see DESIGN.md for why synthetic data
  // substitutes for INEX 2003): 2000 documents, Zipfian vocabulary, with
  // planted "topic" tokens to query against.
  fts::CorpusGenOptions opts;
  opts.seed = 2026;
  opts.num_nodes = 2000;
  opts.min_doc_len = 60;
  opts.max_doc_len = 240;
  opts.vocabulary = 10000;
  opts.num_topic_tokens = 4;
  opts.topic_doc_fraction = 0.25;
  opts.topic_occurrences = 4;
  fts::Corpus corpus = fts::GenerateCorpus(opts);
  fts::InvertedIndex index = fts::IndexBuilder::Build(corpus);
  std::printf("corpus: %s\n\n", index.stats().ToString().c_str());

  const fts::Searcher tfidf(fts::IndexSnapshot::ForIndex(&index),
                            {fts::ScoringKind::kTfIdf});
  const fts::Searcher prob(fts::IndexSnapshot::ForIndex(&index),
                           {fts::ScoringKind::kProbabilistic});

  const char* queries[] = {
      "'topic0' OR 'topic1'",
      "'topic0' AND 'topic1'",
      "'topic0' AND NOT 'topic1'",
      // Proximity-scored: the probabilistic model attenuates by distance
      // (f = 1 - |p1-p2|/dist, Section 3.2).
      "SOME p SOME q (p HAS 'topic0' AND q HAS 'topic1' AND distance(p, q, 50))",
  };

  for (const char* q : queries) {
    std::printf("query: %s\n", q);
    fts::ExecContext tfidf_ctx;
    fts::ExecContext prob_ctx;
    auto a = tfidf.Search(q, tfidf_ctx);
    auto b = prob.Search(q, prob_ctx);
    if (!a.ok() || !b.ok()) {
      std::printf("  failed: %s\n",
                  (!a.ok() ? a.status() : b.status()).ToString().c_str());
      return 1;
    }
    ShowTopK("tf-idf", *a, 5);
    ShowTopK("probabilistic", *b, 5);
    // The two models rank on different scales but must agree on the match
    // set (scoring never changes Boolean semantics).
    if (a->result.nodes != b->result.nodes) {
      std::printf("  ERROR: scoring changed the match set!\n");
      return 1;
    }
    std::printf("\n");
  }

  // Engine-side top-k: the same ranking pushed into the evaluator. The
  // result is bit-identical to full-evaluate-then-TopK above, but the
  // block-max path uses the per-block score bounds to hop blocks that
  // cannot reach the top 5 (EvalCounters::blocks_skipped_by_score).
  fts::ExecContext ctx;
  ctx.set_top_k(5);
  auto ranked = prob.Search("'topic0' OR 'topic1'", ctx);
  if (!ranked.ok()) {
    std::printf("ranked query failed: %s\n",
                ranked.status().ToString().c_str());
    return 1;
  }
  std::printf("engine-side top-k: 'topic0' OR 'topic1'\n");
  ShowTopK("top-5", *ranked, 5);
  std::printf("  candidate blocks skipped on score bounds: %llu\n",
              static_cast<unsigned long long>(
                  ctx.counters().blocks_skipped_by_score));
  return 0;
}
