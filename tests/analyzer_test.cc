#include "text/analyzer.h"

#include <gtest/gtest.h>

#include "eval/searcher.h"
#include "index/index_builder.h"
#include "lang/parser.h"
#include "text/corpus.h"

namespace fts {
namespace {

TEST(StemmerTest, Plurals) {
  EXPECT_EQ(Stemmer::Stem("cats"), "cat");
  EXPECT_EQ(Stemmer::Stem("caresses"), "caress");
  EXPECT_EQ(Stemmer::Stem("ponies"), "poni");
  EXPECT_EQ(Stemmer::Stem("caress"), "caress");
}

TEST(StemmerTest, EdAndIng) {
  EXPECT_EQ(Stemmer::Stem("hopping"), "hop");
  EXPECT_EQ(Stemmer::Stem("hoping"), "hop");
  EXPECT_EQ(Stemmer::Stem("related"), "relat");
  EXPECT_EQ(Stemmer::Stem("searching"), "search");
  EXPECT_EQ(Stemmer::Stem("indexed"), "index");
}

TEST(StemmerTest, DerivationalSuffixes) {
  // Final-e stripping (step 5a) runs after the suffix table, so -ate/-ize
  // families land on their e-less stems, as in Porter's output.
  EXPECT_EQ(Stemmer::Stem("relational"), "relat");
  EXPECT_EQ(Stemmer::Stem("optimization"), "optimiz");
  EXPECT_EQ(Stemmer::Stem("usefulness"), "useful");
  EXPECT_EQ(Stemmer::Stem("government"), "govern");
}

TEST(StemmerTest, ShortWordsUntouched) {
  EXPECT_EQ(Stemmer::Stem("as"), "as");
  EXPECT_EQ(Stemmer::Stem("is"), "is");
  EXPECT_EQ(Stemmer::Stem("sky"), "sky");
}

TEST(StemmerTest, QueryAndDocumentFormsAgree) {
  // The property that matters for retrieval: morphological variants of a
  // family map to one representative.
  const char* families[][3] = {
      {"search", "searched", "searching"},
      {"index", "indexes", "indexed"},
      {"complete", "completes", "completed"},
  };
  for (const auto& family : families) {
    const std::string base = Stemmer::Stem(family[0]);
    EXPECT_EQ(Stemmer::Stem(family[1]), base) << family[1];
    EXPECT_EQ(Stemmer::Stem(family[2]), base) << family[2];
  }
}

TEST(StopwordTest, DefaultEnglishList) {
  const StopwordSet& s = StopwordSet::DefaultEnglish();
  EXPECT_TRUE(s.Contains("the"));
  EXPECT_TRUE(s.Contains("and"));
  EXPECT_TRUE(s.Contains("of"));
  EXPECT_FALSE(s.Contains("software"));
  EXPECT_FALSE(s.Contains("usability"));
}

TEST(ThesaurusTest, SymmetricExpansion) {
  Thesaurus t;
  t.AddGroup({"fast", "quick", "rapid"});
  auto fast = t.Expand("fast");
  EXPECT_EQ(fast.size(), 3u);
  auto quick = t.Expand("quick");
  EXPECT_EQ(quick.size(), 3u);
  EXPECT_EQ(t.Expand("slow"), (std::vector<std::string>{"slow"}));
}

TEST(AnalyzerTest, DocumentSideDropsStopwordsKeepsGaps) {
  Analyzer analyzer;
  auto tokens = analyzer.AnalyzeDocument("the cats and the dogs");
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[0].text, "cat");
  EXPECT_EQ(tokens[0].position.offset, 1u);  // original offsets preserved
  EXPECT_EQ(tokens[1].text, "dog");
  EXPECT_EQ(tokens[1].position.offset, 4u);
}

TEST(AnalyzerTest, QueryTokenMapsToDocumentForm) {
  Analyzer analyzer;
  EXPECT_EQ(analyzer.AnalyzeQueryToken("Searching"), "search");
  EXPECT_EQ(analyzer.AnalyzeQueryToken("the"), "");  // stop-word
}

TEST(AnalyzerTest, StemmingCanBeDisabled) {
  Analyzer analyzer(AnalyzerOptions{.stem = false, .remove_stopwords = false});
  EXPECT_EQ(analyzer.AnalyzeQueryToken("Searching"), "searching");
  EXPECT_EQ(analyzer.AnalyzeQueryToken("the"), "the");
}

struct AnalyzedSearchFixture : public ::testing::Test {
  void SetUp() override {
    Analyzer analyzer;
    corpus.AddAnalyzedDocument(
        analyzer.AnalyzeDocument("The efficient searcher was searching quickly"));
    corpus.AddAnalyzedDocument(
        analyzer.AnalyzeDocument("Completed tasks and their completion times"));
    corpus.AddAnalyzedDocument(analyzer.AnalyzeDocument("Nothing relevant here"));
    index = IndexBuilder::Build(corpus);
  }

  std::vector<NodeId> Search(const std::string& query,
                             const Thesaurus* thesaurus = nullptr) {
    Analyzer analyzer;
    auto parsed = ParseQuery(query, SurfaceLanguage::kComp);
    EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
    auto rewritten = RewriteQuery(*parsed, analyzer, thesaurus);
    EXPECT_TRUE(rewritten.ok()) << rewritten.status().ToString();
    ExecContext ctx;
    auto result = Searcher(IndexSnapshot::ForIndex(&index)).SearchParsed(*rewritten, ctx);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? result->result.nodes : std::vector<NodeId>{};
  }

  Corpus corpus;
  InvertedIndex index;
};

TEST_F(AnalyzedSearchFixture, MorphologicalVariantsMatch) {
  // "searches" stems to the same form as the indexed "searching"/"searcher"
  // family head "search".
  EXPECT_EQ(Search("'searched'"), (std::vector<NodeId>{0}));
  EXPECT_EQ(Search("'completion'"), (std::vector<NodeId>{1}));
  EXPECT_EQ(Search("'completing'"), (std::vector<NodeId>{1}));
}

TEST_F(AnalyzedSearchFixture, StopwordConjunctsArePruned) {
  EXPECT_EQ(Search("'the' AND 'efficient'"), (std::vector<NodeId>{0}));
}

TEST_F(AnalyzedSearchFixture, AllStopwordQueryIsAnError) {
  Analyzer analyzer;
  auto parsed = ParseQuery("'the' AND 'of'", SurfaceLanguage::kComp);
  ASSERT_TRUE(parsed.ok());
  auto rewritten = RewriteQuery(*parsed, analyzer);
  EXPECT_FALSE(rewritten.ok());
}

TEST_F(AnalyzedSearchFixture, ThesaurusExpandsIntoDisjunction) {
  Thesaurus thesaurus;
  thesaurus.AddGroup({"efficient", "quick"});  // post-stemming forms
  // 'quickly' stems to 'quickli'... the indexed doc has "quickly" ->
  // "quickli"; query 'efficient' expands to efficient OR quick; only
  // 'efficient' hits node 0.
  EXPECT_EQ(Search("'efficient'", &thesaurus), (std::vector<NodeId>{0}));
  // A synonym of a token absent from the corpus still finds the documents
  // holding the other group members.
  Thesaurus t2;
  t2.AddGroup({"speedy", "efficient"});
  EXPECT_EQ(Search("'speedy'", &t2), (std::vector<NodeId>{0}));
}

TEST_F(AnalyzedSearchFixture, RewritePreservesProximityStructure) {
  Analyzer analyzer;
  auto parsed = ParseQuery(
      "SOME p SOME q (p HAS 'efficient' AND q HAS 'searching' AND "
      "distance(p, q, 5))",
      SurfaceLanguage::kComp);
  ASSERT_TRUE(parsed.ok());
  auto rewritten = RewriteQuery(*parsed, analyzer);
  ASSERT_TRUE(rewritten.ok());
  ExecContext ctx;
  auto result = Searcher(IndexSnapshot::ForIndex(&index)).SearchParsed(*rewritten, ctx);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->result.nodes, (std::vector<NodeId>{0}));
}

}  // namespace
}  // namespace fts
