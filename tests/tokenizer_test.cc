#include "text/tokenizer.h"

#include <gtest/gtest.h>

namespace fts {
namespace {

std::vector<std::string> Texts(const std::vector<RawToken>& toks) {
  std::vector<std::string> out;
  for (const RawToken& t : toks) out.push_back(t.text);
  return out;
}

TEST(TokenizerTest, SplitsOnNonAlnum) {
  Tokenizer tok;
  auto toks = tok.Tokenize("Usability of a software, measures!");
  EXPECT_EQ(Texts(toks), (std::vector<std::string>{"usability", "of", "a",
                                                   "software", "measures"}));
}

TEST(TokenizerTest, OffsetsAreConsecutive) {
  Tokenizer tok;
  auto toks = tok.Tokenize("a b c d");
  for (size_t i = 0; i < toks.size(); ++i) {
    EXPECT_EQ(toks[i].position.offset, i);
  }
}

TEST(TokenizerTest, Lowercases) {
  Tokenizer tok;
  auto toks = tok.Tokenize("Task COMPLETION");
  EXPECT_EQ(Texts(toks), (std::vector<std::string>{"task", "completion"}));
}

TEST(TokenizerTest, KeepsNumbers) {
  Tokenizer tok;
  auto toks = tok.Tokenize("isbn 1000 x2");
  EXPECT_EQ(Texts(toks), (std::vector<std::string>{"isbn", "1000", "x2"}));
}

TEST(TokenizerTest, SentenceBoundariesAdvanceOrdinal) {
  Tokenizer tok;
  auto toks = tok.Tokenize("One two. Three! Four? Five");
  ASSERT_EQ(toks.size(), 5u);
  EXPECT_EQ(toks[0].position.sentence, 0u);
  EXPECT_EQ(toks[1].position.sentence, 0u);
  EXPECT_EQ(toks[2].position.sentence, 1u);
  EXPECT_EQ(toks[3].position.sentence, 2u);
  EXPECT_EQ(toks[4].position.sentence, 3u);
}

TEST(TokenizerTest, RepeatedPunctuationCountsOnce) {
  Tokenizer tok;
  auto toks = tok.Tokenize("One... Two");
  ASSERT_EQ(toks.size(), 2u);
  EXPECT_EQ(toks[1].position.sentence, 1u);
}

TEST(TokenizerTest, BlankLinesStartParagraphs) {
  Tokenizer tok;
  auto toks = tok.Tokenize("para one text\n\npara two text\n \n\t\npara three");
  ASSERT_EQ(toks.size(), 8u);
  EXPECT_EQ(toks[0].position.paragraph, 0u);
  EXPECT_EQ(toks[2].position.paragraph, 0u);
  EXPECT_EQ(toks[3].position.paragraph, 1u);
  EXPECT_EQ(toks[5].position.paragraph, 1u);
  EXPECT_EQ(toks[6].position.paragraph, 2u);
}

TEST(TokenizerTest, ParagraphBreakAlsoBreaksSentence) {
  Tokenizer tok;
  auto toks = tok.Tokenize("alpha beta\n\ngamma");
  ASSERT_EQ(toks.size(), 3u);
  EXPECT_NE(toks[1].position.sentence, toks[2].position.sentence);
}

TEST(TokenizerTest, EmptyAndPunctuationOnlyInputs) {
  Tokenizer tok;
  EXPECT_TRUE(tok.Tokenize("").empty());
  EXPECT_TRUE(tok.Tokenize("... !!! ???").empty());
}

TEST(TokenizerTest, NormalizeMatchesDocumentSide) {
  Tokenizer tok;
  EXPECT_EQ(tok.Normalize("EfFiCiEnT"), "efficient");
}

}  // namespace
}  // namespace fts
