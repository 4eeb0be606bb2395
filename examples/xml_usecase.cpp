// XQuery Full-Text Use Case 10.4 (paper Example 1): given a collection of
// book and article elements, find the *book* elements containing the token
// "efficient" and the phrase "task completion" in that order with at most
// 10 intervening tokens.
//
// The full-text language deliberately does not select the context nodes —
// that is the structured half of the query (XQuery/SQL in the paper). This
// example plays that role with a tiny element extractor: each <book> body
// becomes one context node, and the COMP query supplies the full-text
// condition: ordered phrase matching plus a distance bound.

#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "eval/searcher.h"
#include "index/index_builder.h"
#include "text/corpus.h"

namespace {

// Minimal structured-search stand-in: pull the text of every <tag>...</tag>
// element out of a document. (A real deployment would sit behind XQuery.)
std::vector<std::string> ExtractElements(std::string_view xml, std::string_view tag) {
  std::vector<std::string> out;
  const std::string open = "<" + std::string(tag) + ">";
  const std::string close = "</" + std::string(tag) + ">";
  size_t pos = 0;
  while (true) {
    size_t b = xml.find(open, pos);
    if (b == std::string_view::npos) break;
    b += open.size();
    size_t e = xml.find(close, b);
    if (e == std::string_view::npos) break;
    out.emplace_back(xml.substr(b, e - b));
    pos = e + close.size();
  }
  return out;
}

}  // namespace

int main() {
  const std::string collection = R"(
<book>Usability of a software measures how well the software supports
achieving an efficient software task completion in everyday work.</book>
<article>This article mentions efficient task completion too, but articles
are outside the search context.</article>
<book>The efficient authors wrote many words and only much much later, far
beyond any reasonable window of ten tokens, discussed task completion.</book>
<book>Task completion without the keyword nearby; the efficient marker
appears only afterwards.</book>
<book>An efficient approach: plan, execute, review. Task completion follows
within a few tokens.</book>
)";

  // Structured part: the search context is the book elements only.
  fts::Corpus books;
  for (const std::string& body : ExtractElements(collection, "book")) {
    books.AddDocument(body);
  }
  std::printf("search context: %zu book elements (articles excluded)\n\n",
              books.num_nodes());

  fts::InvertedIndex index = fts::IndexBuilder::Build(books);
  const fts::Searcher searcher(fts::IndexSnapshot::ForIndex(&index));

  // Full-text part (Use Case 10.4): 'efficient', then the phrase
  // 'task completion', in that order, within 10 intervening tokens.
  const std::string query =
      "SOME e SOME t SOME c ("
      "e HAS 'efficient' AND t HAS 'task' AND c HAS 'completion' "
      "AND odistance(t, c, 0)"     // phrase: completion right after task
      "AND odistance(e, t, 10))";  // order + distance bound

  fts::ExecContext ctx;
  auto routed = searcher.Search(query, ctx);
  if (!routed.ok()) {
    std::printf("query failed: %s\n", routed.status().ToString().c_str());
    return 1;
  }
  std::printf("query: %s\n", query.c_str());
  std::printf("routed to %s (%s class)\n\n", routed->engine.c_str(),
              fts::LanguageClassToString(routed->language_class));
  std::printf("matching books:\n");
  for (fts::NodeId n : routed->result.nodes) {
    std::printf("  book #%u\n", n);
  }
  std::printf("\nevaluation cost: %s\n", routed->result.counters.ToString().c_str());

  // Contrast with what weaker languages can say (Section 4): BOOL finds all
  // books with the three words, which over-approximates badly.
  fts::ExecContext bool_ctx;
  auto boolish = searcher.Search("'efficient' AND 'task' AND 'completion'", bool_ctx);
  if (boolish.ok()) {
    std::printf("\nBOOL over-approximation ('efficient' AND 'task' AND "
                "'completion'): %zu books vs %zu correct\n",
                boolish->result.nodes.size(), routed->result.nodes.size());
  }
  return 0;
}
