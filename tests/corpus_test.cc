#include "text/corpus.h"

#include <gtest/gtest.h>

namespace fts {
namespace {

TEST(CorpusTest, AddDocumentTokenizesAndInterns) {
  Corpus corpus;
  NodeId id = corpus.AddDocument("usability of software usability");
  EXPECT_EQ(id, 0u);
  EXPECT_EQ(corpus.num_nodes(), 1u);
  EXPECT_EQ(corpus.vocabulary_size(), 3u);
  const TokenizedDocument& doc = corpus.doc(id);
  ASSERT_EQ(doc.size(), 4u);
  EXPECT_EQ(doc.tokens[0], doc.tokens[3]);  // both "usability"
}

TEST(CorpusTest, TokenIdsStableAcrossDocuments) {
  Corpus corpus;
  corpus.AddDocument("alpha beta");
  corpus.AddDocument("beta gamma");
  TokenId beta = corpus.LookupToken("beta");
  ASSERT_NE(beta, kInvalidToken);
  EXPECT_EQ(corpus.doc(0).tokens[1], beta);
  EXPECT_EQ(corpus.doc(1).tokens[0], beta);
}

TEST(CorpusTest, LookupMissingTokenReturnsInvalid) {
  Corpus corpus;
  corpus.AddDocument("alpha");
  EXPECT_EQ(corpus.LookupToken("missing"), kInvalidToken);
}

TEST(CorpusTest, AddTokensNormalizes) {
  Corpus corpus;
  corpus.AddTokens({"Alpha", "BETA"});
  EXPECT_NE(corpus.LookupToken("alpha"), kInvalidToken);
  EXPECT_NE(corpus.LookupToken("beta"), kInvalidToken);
  EXPECT_EQ(corpus.LookupToken("Alpha"), kInvalidToken);
}

TEST(CorpusTest, AddTokensWithPositionsValidatesLengths) {
  Corpus corpus;
  auto result = corpus.AddTokensWithPositions({"a", "b"}, {PositionInfo{0, 0, 0}});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(CorpusTest, AddTokensWithPositionsRequiresIncreasingOffsets) {
  Corpus corpus;
  auto result = corpus.AddTokensWithPositions(
      {"a", "b"}, {PositionInfo{5, 0, 0}, PositionInfo{5, 0, 0}});
  EXPECT_FALSE(result.ok());
}

TEST(CorpusTest, AddAnalyzedDocumentRequiresIncreasingOffsets) {
  // The run table and every engine's position order rely on strictly
  // increasing offsets, so an analyzed stream is held to them too: a
  // repeated or decreasing offset is rejected and adds no node.
  Corpus corpus;
  for (const std::vector<RawToken>& tokens :
       {std::vector<RawToken>{{"a", {5, 0, 0}}, {"b", {5, 0, 0}}},
        std::vector<RawToken>{{"a", {5, 0, 0}}, {"b", {4, 1, 0}}}}) {
    const StatusOr<NodeId> added = corpus.AddAnalyzedDocument(tokens);
    ASSERT_FALSE(added.ok());
    EXPECT_EQ(added.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(added.status().message(), "position offsets must be strictly increasing");
  }
  EXPECT_EQ(corpus.num_nodes(), 0u);
  const StatusOr<NodeId> gap = corpus.AddAnalyzedDocument({{"a", {0, 0, 0}}, {"b", {7, 1, 0}}});
  ASSERT_TRUE(gap.ok());
  EXPECT_EQ(*gap, 0u);
}

TEST(CorpusTest, AddTokensWithPositionsKeepsStructure) {
  Corpus corpus;
  auto result = corpus.AddTokensWithPositions(
      {"a", "b"}, {PositionInfo{0, 0, 0}, PositionInfo{7, 2, 1}});
  ASSERT_TRUE(result.ok());
  const TokenizedDocument& doc = corpus.doc(*result);
  EXPECT_EQ(doc.positions[1].offset, 7u);
  EXPECT_EQ(doc.positions[1].sentence, 2u);
  EXPECT_EQ(doc.positions[1].paragraph, 1u);
}

TEST(CorpusTest, EmptyDocumentAllowed) {
  Corpus corpus;
  NodeId id = corpus.AddDocument("");
  EXPECT_TRUE(corpus.doc(id).empty());
}

TEST(CorpusTest, TokenTextRoundTrip) {
  Corpus corpus;
  corpus.AddDocument("efficient task completion");
  TokenId id = corpus.LookupToken("task");
  ASSERT_NE(id, kInvalidToken);
  EXPECT_EQ(corpus.token_text(id), "task");
}

}  // namespace
}  // namespace fts
