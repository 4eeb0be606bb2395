// A tour of the expressiveness hierarchy (paper Section 4): runs, on the
// theorem witness corpora, the queries BOOL and DIST cannot express —
// showing COMP separating nodes that every weaker-language query confuses —
// and prints how the classifier places queries into the Figure 3 classes.

#include <cstdio>

#include "eval/searcher.h"
#include "index/index_builder.h"
#include "lang/classify.h"
#include "lang/parser.h"
#include "text/corpus.h"

namespace {

void Show(const fts::Searcher& searcher, const char* query) {
  fts::ExecContext ctx;
  auto routed = searcher.Search(query, ctx);
  if (!routed.ok()) {
    std::printf("  %-70s -> error: %s\n", query, routed.status().ToString().c_str());
    return;
  }
  std::printf("  %-70s -> class %-10s nodes {", query,
              fts::LanguageClassToString(routed->language_class));
  for (fts::NodeId n : routed->result.nodes) std::printf(" %u", n);
  std::printf(" }\n");
}

}  // namespace

int main() {
  // --- Theorem 3's witness: BOOL cannot say "some token other than t1". ---
  std::printf("Theorem 3 witness corpus: CN0 = {t1}, CN1 = {t1 t2}\n");
  fts::Corpus c3;
  c3.AddDocument("t1");
  c3.AddDocument("t1 t2");
  fts::InvertedIndex i3 = fts::IndexBuilder::Build(c3);
  const fts::Searcher r3(fts::IndexSnapshot::ForIndex(&i3));
  // Every BOOL query over {t1} treats CN0 and CN1 alike...
  Show(r3, "'t1'");
  Show(r3, "NOT 't1'");
  Show(r3, "'t1' AND ANY");
  // ...but COMP's position variables separate them:
  Show(r3, "SOME p1 (NOT p1 HAS 't1')");

  // --- Theorem 5's witness: DIST cannot negate a distance. ---
  std::printf("\nTheorem 5 witness corpus: CN0 = t1 t2 t1, CN1 = t1 t2 t1 t2\n");
  fts::Corpus c5;
  c5.AddDocument("t1 t2 t1");
  c5.AddDocument("t1 t2 t1 t2");
  fts::InvertedIndex i5 = fts::IndexBuilder::Build(c5);
  const fts::Searcher r5(fts::IndexSnapshot::ForIndex(&i5));
  // DIST's positive distances hold on both nodes...
  Show(r5, "dist('t1', 't2', 0)");
  Show(r5, "dist('t2', 't1', 0)");
  // ...only the negated distance separates them (and lands in NPRED):
  Show(r5, "SOME p1 SOME p2 (p1 HAS 't1' AND p2 HAS 't2' AND "
           "NOT distance(p1, p2, 0))");
  Show(r5, "SOME p1 SOME p2 (p1 HAS 't1' AND p2 HAS 't2' AND "
           "not_distance(p1, p2, 0))");

  // --- The full hierarchy on one corpus. ---
  std::printf("\nThe Figure 3 hierarchy, bottom to top:\n");
  fts::Corpus ch;
  ch.AddDocument("alpha beta gamma. delta epsilon.\n\nzeta eta alpha");
  ch.AddDocument("beta beta alpha");
  ch.AddDocument("gamma delta");
  fts::InvertedIndex ih = fts::IndexBuilder::Build(ch);
  const fts::Searcher rh(fts::IndexSnapshot::ForIndex(&ih));
  Show(rh, "'alpha' AND 'beta'");                          // BOOL-NONEG
  Show(rh, "NOT 'alpha'");                                 // BOOL
  Show(rh, "dist('alpha', 'beta', 1)");                    // PPRED
  Show(rh, "SOME p SOME q (p HAS 'alpha' AND q HAS 'beta' AND "
           "samepara(p, q))");                             // PPRED
  Show(rh, "SOME p SOME q (p HAS 'beta' AND q HAS 'beta' AND "
           "diffpos(p, q))");                              // NPRED
  Show(rh, "EVERY p (p HAS 'gamma' OR p HAS 'delta')");    // COMP
  return 0;
}
