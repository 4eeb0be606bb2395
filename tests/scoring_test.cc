#include "scoring/tfidf.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <unordered_map>

#include "algebra/fta.h"
#include "eval/bool_engine.h"
#include "eval/comp_engine.h"
#include "index/index_builder.h"
#include "index/index_snapshot.h"
#include "index/segment_merger.h"
#include "index/tombstone_set.h"
#include "lang/parser.h"
#include "scoring/probabilistic.h"
#include "workload/corpus_gen.h"

namespace fts {
namespace {

struct ScoringFixture : public ::testing::Test {
  void SetUp() override {
    CorpusGenOptions opts;
    opts.seed = 17;
    opts.num_nodes = 80;
    opts.min_doc_len = 20;
    opts.max_doc_len = 80;
    opts.vocabulary = 300;
    opts.num_topic_tokens = 4;
    opts.topic_doc_fraction = 0.6;
    opts.topic_occurrences = 3;
    corpus = GenerateCorpus(opts);
    index = IndexBuilder::Build(corpus);
  }
  Corpus corpus;
  InvertedIndex index;
};

// ---------------------------------------------------------------------------
// Theorem 2: the TF-IDF score transformations propagate, through the
// algebra, exactly the classical cosine TF-IDF score for conjunctive and
// disjunctive queries (verified at node granularity, where projection's
// score summation realizes the theorem's per-token invariant).
// ---------------------------------------------------------------------------

TEST_F(ScoringFixture, Theorem2SingleToken) {
  TfIdfScoreModel model(&index, index.scoring_stats(), {"topic0"});
  auto plan = FtaExpr::Project(FtaExpr::Token("topic0"), {});
  ASSERT_TRUE(plan.ok());
  auto rel = EvaluateFta(*plan, index, &model, nullptr);
  ASSERT_TRUE(rel.ok());
  ASSERT_GT(rel->size(), 0u);
  for (size_t i = 0; i < rel->size(); ++i) {
    EXPECT_NEAR(rel->tuple(i).score, model.DirectNodeScore(rel->tuple(i).node), 1e-9);
  }
}

TEST_F(ScoringFixture, Theorem2Conjunction) {
  TfIdfScoreModel model(&index, index.scoring_stats(), {"topic0", "topic1"});
  auto join = FtaExpr::Join(FtaExpr::Token("topic0"), FtaExpr::Token("topic1"));
  auto plan = FtaExpr::Project(join, {});
  ASSERT_TRUE(plan.ok());
  auto rel = EvaluateFta(*plan, index, &model, nullptr);
  ASSERT_TRUE(rel.ok());
  ASSERT_GT(rel->size(), 0u);
  for (size_t i = 0; i < rel->size(); ++i) {
    EXPECT_NEAR(rel->tuple(i).score, model.DirectNodeScore(rel->tuple(i).node), 1e-9)
        << "node " << rel->tuple(i).node;
  }
}

TEST_F(ScoringFixture, Theorem2ThreeWayConjunction) {
  TfIdfScoreModel model(&index, index.scoring_stats(),
                        {"topic0", "topic1", "topic2"});
  auto join = FtaExpr::Join(FtaExpr::Join(FtaExpr::Token("topic0"),
                                          FtaExpr::Token("topic1")),
                            FtaExpr::Token("topic2"));
  auto plan = FtaExpr::Project(join, {});
  ASSERT_TRUE(plan.ok());
  auto rel = EvaluateFta(*plan, index, &model, nullptr);
  ASSERT_TRUE(rel.ok());
  ASSERT_GT(rel->size(), 0u);
  for (size_t i = 0; i < rel->size(); ++i) {
    EXPECT_NEAR(rel->tuple(i).score, model.DirectNodeScore(rel->tuple(i).node), 1e-9);
  }
}

TEST_F(ScoringFixture, Theorem2Disjunction) {
  TfIdfScoreModel model(&index, index.scoring_stats(), {"topic0", "topic1"});
  auto l = FtaExpr::Project(FtaExpr::Token("topic0"), {});
  auto r = FtaExpr::Project(FtaExpr::Token("topic1"), {});
  ASSERT_TRUE(l.ok());
  ASSERT_TRUE(r.ok());
  auto u = FtaExpr::Union(*l, *r);
  ASSERT_TRUE(u.ok());
  auto rel = EvaluateFta(*u, index, &model, nullptr);
  ASSERT_TRUE(rel.ok());
  ASSERT_GT(rel->size(), 0u);
  for (size_t i = 0; i < rel->size(); ++i) {
    EXPECT_NEAR(rel->tuple(i).score, model.DirectNodeScore(rel->tuple(i).node), 1e-9);
  }
}

TEST_F(ScoringFixture, JoinConservesTotalScore) {
  // The "first law of thermodynamics" remark in Section 3.1: the join
  // neither creates nor destroys score mass.
  TfIdfScoreModel model(&index, index.scoring_stats(), {"topic0", "topic1"});
  auto t0 = *OpScanToken(index, "topic0", &model, nullptr);
  auto t1 = *OpScanToken(index, "topic1", &model, nullptr);
  auto joined = OpJoin(t0, t1, &model, nullptr);

  // Sum input scores restricted to nodes surviving the join.
  std::vector<NodeId> nodes = joined.Nodes();
  auto sum_for = [&nodes](const FtRelation& r) {
    double s = 0;
    for (size_t i = 0; i < r.size(); ++i) {
      if (std::binary_search(nodes.begin(), nodes.end(), r.tuple(i).node)) {
        s += r.tuple(i).score;
      }
    }
    return s;
  };
  const double before = sum_for(t0) + sum_for(t1);
  double after = 0;
  for (size_t i = 0; i < joined.size(); ++i) after += joined.tuple(i).score;
  EXPECT_NEAR(before, after, 1e-9);
}

TEST_F(ScoringFixture, PipelinedEnginesMatchCompTfIdfOnConjunctions) {
  BoolEngine bool_engine(&index, ScoringKind::kTfIdf);
  CompEngine comp_engine(&index, ScoringKind::kTfIdf);
  auto parsed = ParseQuery("'topic0' AND 'topic1'", SurfaceLanguage::kComp);
  ASSERT_TRUE(parsed.ok());
  auto b = bool_engine.Evaluate(*parsed);
  auto c = comp_engine.Evaluate(*parsed);
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(c.ok());
  ASSERT_EQ(b->nodes, c->nodes);
  for (size_t i = 0; i < b->nodes.size(); ++i) {
    EXPECT_NEAR(b->scores[i], c->scores[i], 1e-9);
  }
}

TEST_F(ScoringFixture, IdfDecreasesWithDocumentFrequency) {
  TfIdfScoreModel model(&index, index.scoring_stats(), {"topic0"});
  // Background token w0 is the most frequent Zipf rank; topics are planted
  // in ~60% of documents. Compare a rare background token to w0.
  const double idf_common = model.Idf("w0");
  const double idf_rare = model.Idf("topic0");
  EXPECT_GT(idf_common, 0.0);
  // Not asserting order between these two specific tokens in general —
  // instead check the monotone law directly on document frequencies.
  const TokenId w0 = index.LookupToken("w0");
  const TokenId t0 = index.LookupToken("topic0");
  ASSERT_NE(w0, kInvalidToken);
  ASSERT_NE(t0, kInvalidToken);
  if (index.df(w0) > index.df(t0)) {
    EXPECT_LT(idf_common, idf_rare);
  } else if (index.df(w0) < index.df(t0)) {
    EXPECT_GT(idf_common, idf_rare);
  }
}

TEST_F(ScoringFixture, OovQueryTokenScoresZero) {
  TfIdfScoreModel model(&index, index.scoring_stats(), {"doesnotexist"});
  EXPECT_EQ(model.Idf("doesnotexist"), 0.0);
  EXPECT_EQ(model.DirectNodeScore(0), 0.0);
}

// ---------------------------------------------------------------------------
// Probabilistic model (Section 3.2).
// ---------------------------------------------------------------------------

TEST_F(ScoringFixture, ProbabilisticLeafScoresAreProbabilities) {
  ProbabilisticScoreModel model(index.scoring_stats());
  for (const char* tok : {"topic0", "w0", "w5"}) {
    const TokenId id = index.LookupToken(tok);
    if (id == kInvalidToken) continue;
    const double p = model.LeafScore(index, id, 0);
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST_F(ScoringFixture, ProbabilisticOperatorsStayInUnitInterval) {
  ProbabilisticScoreModel model(index.scoring_stats());
  const double a = 0.7, b = 0.4;
  EXPECT_NEAR(model.JoinScore(a, 3, b, 5), a * b, 1e-12);
  EXPECT_NEAR(model.UnionBoth(a, b), 1 - (1 - a) * (1 - b), 1e-12);
  EXPECT_NEAR(model.ProjectCombine(a, b), 1 - (1 - a) * (1 - b), 1e-12);
  EXPECT_NEAR(model.IntersectScore(a, b), a * b, 1e-12);
  EXPECT_NEAR(model.NegateScore(a), 1 - a, 1e-12);
  EXPECT_NEAR(model.DifferenceScore(a), a, 1e-12);
}

TEST_F(ScoringFixture, ProbabilisticSelectAttenuatesByDistance) {
  ProbabilisticScoreModel model(index.scoring_stats());
  const auto* dist = PredicateRegistry::Default().Find("distance");
  std::vector<PositionInfo> near{{10, 0, 0}, {11, 0, 0}};
  std::vector<PositionInfo> far{{10, 0, 0}, {18, 0, 0}};
  std::vector<int64_t> consts{10};
  EXPECT_GT(model.SelectScore(0.8, *dist, near, consts),
            model.SelectScore(0.8, *dist, far, consts));
}

TEST_F(ScoringFixture, ProbabilisticEntryScoreIsNoisyOr) {
  ProbabilisticScoreModel model(index.scoring_stats());
  const TokenId t0 = index.LookupToken("topic0");
  ASSERT_NE(t0, kInvalidToken);
  const double p = model.LeafScore(index, t0, 0);
  EXPECT_NEAR(model.EntryScore(index, t0, 0, 3), 1 - std::pow(1 - p, 3), 1e-12);
}

TEST_F(ScoringFixture, TfIdfEntryScoreIsLinear) {
  TfIdfScoreModel model(&index, index.scoring_stats(), {"topic0"});
  const TokenId t0 = index.LookupToken("topic0");
  ASSERT_NE(t0, kInvalidToken);
  const double p = model.LeafScore(index, t0, 0);
  EXPECT_NEAR(model.EntryScore(index, t0, 0, 4), 4 * p, 1e-12);
}

// ---------------------------------------------------------------------------
// Block-header scoring reads: df/idf lookups and tf (occurs) reads are
// served from the resident block lists' headers. Pure df lookups decode
// nothing at all, and even DirectNodeScore — which seeks posting entries —
// never decodes position payloads.
// ---------------------------------------------------------------------------

TEST_F(ScoringFixture, DfLookupsDecodeNoBlocks) {
  std::vector<std::string> tokens = {"topic0", "topic1", "w0", "w5", "zzz-oov"};
  EvalCounters counters;
  TfIdfScoreModel model(&index, index.scoring_stats(), tokens, &counters);
  // Model construction computes idf (hence df) for every query token.
  EXPECT_EQ(counters.blocks_decoded, 0u);
  EXPECT_EQ(counters.entries_decoded, 0u);
  EXPECT_EQ(counters.positions_decoded, 0u);
  for (const std::string& t : tokens) {
    (void)model.Idf(t);
  }
  for (NodeId n = 0; n < index.num_nodes(); ++n) {
    const TokenId t0 = index.LookupToken("topic0");
    (void)model.LeafScore(index, t0, n);
    (void)model.EntryScore(index, t0, n, 3);
  }
  // df/idf and the per-entry static scores come from block headers and
  // precomputed node scalars: still not a single block decoded — and the
  // decoded-block cache sees no traffic at all (no bulk decodes, no hits,
  // no misses), so caching adds zero work to df/idf-only lookups.
  EXPECT_EQ(counters.blocks_decoded, 0u);
  EXPECT_EQ(counters.entries_decoded, 0u);
  EXPECT_EQ(counters.positions_decoded, 0u);
  EXPECT_EQ(counters.blocks_bulk_decoded, 0u);
  EXPECT_EQ(counters.cache_hits, 0u);
  EXPECT_EQ(counters.cache_misses, 0u);

  // Probabilistic scoring reads df the same way (no cursor at all).
  ProbabilisticScoreModel prob(index.scoring_stats());
  for (TokenId t = 0; t < index.vocabulary_size(); ++t) {
    (void)prob.LeafScore(index, t, 0);
  }
  EXPECT_EQ(counters.blocks_decoded, 0u);
  EXPECT_EQ(counters.cache_hits + counters.cache_misses, 0u);
}

TEST_F(ScoringFixture, DirectNodeScoreNeverDecodesPositions) {
  EvalCounters counters;
  TfIdfScoreModel model(&index, index.scoring_stats(),
                        {"topic0", "topic1", "w3"}, &counters);
  double total = 0;
  for (NodeId n = 0; n < index.num_nodes(); ++n) {
    total += model.DirectNodeScore(n);
  }
  EXPECT_GT(total, 0.0);
  // The reference computation seeks entry headers (occurs == pos_count),
  // so blocks decode — but position payloads never do.
  EXPECT_GT(counters.blocks_decoded, 0u);
  EXPECT_EQ(counters.positions_decoded, 0u);
}

TEST_F(ScoringFixture, ScoringAddsNoDecodeWorkToEvaluation) {
  // Scored and unscored runs of the same BOOL query must decode the exact
  // same blocks/entries: the scoring side reads only headers (pos_count)
  // and precomputed statistics, in both cursor modes.
  auto parsed = ParseQuery("'topic0' AND ('topic1' OR NOT 'w2')",
                           SurfaceLanguage::kBool);
  ASSERT_TRUE(parsed.ok());
  for (CursorMode mode : {CursorMode::kSequential, CursorMode::kSeek,
                          CursorMode::kAdaptive}) {
    BoolEngine plain(&index, ScoringKind::kNone, mode);
    BoolEngine tfidf(&index, ScoringKind::kTfIdf, mode);
    BoolEngine prob(&index, ScoringKind::kProbabilistic, mode);
    auto a = plain.Evaluate(*parsed);
    auto b = tfidf.Evaluate(*parsed);
    auto c = prob.Evaluate(*parsed);
    ASSERT_TRUE(a.ok() && b.ok() && c.ok());
    EXPECT_EQ(a->counters.blocks_decoded, b->counters.blocks_decoded);
    EXPECT_EQ(a->counters.entries_decoded, b->counters.entries_decoded);
    EXPECT_EQ(a->counters.blocks_decoded, c->counters.blocks_decoded);
    EXPECT_EQ(a->counters.entries_decoded, c->counters.entries_decoded);
    // The per-query decoded-block cache sees identical traffic too: the
    // scoring side never loads a block the unscored run would not.
    EXPECT_EQ(a->counters.cache_hits, b->counters.cache_hits);
    EXPECT_EQ(a->counters.cache_misses, b->counters.cache_misses);
    EXPECT_EQ(a->counters.cache_hits, c->counters.cache_hits);
    EXPECT_EQ(a->counters.cache_misses, c->counters.cache_misses);
    EXPECT_EQ(a->counters.blocks_bulk_decoded, b->counters.blocks_bulk_decoded);
    // BOOL evaluation is node-level: no PosList is ever decoded, scored or
    // not.
    EXPECT_EQ(a->counters.positions_decoded, 0u);
    EXPECT_EQ(b->counters.positions_decoded, 0u);
    EXPECT_EQ(c->counters.positions_decoded, 0u);
  }
}

// ---------------------------------------------------------------------------
// Node norms are exact, order-free sums (scoring/score_model.h): every way
// of indexing the same live documents stores the same norm bits.
// ---------------------------------------------------------------------------

TEST_F(ScoringFixture, NormsMatchTheClassicalDefinition) {
  // sqrt(sum_t (tf * idf)^2), summed in doubles, to within a few ulps.
  const SegmentScoringStats stats = index.scoring_stats();
  std::vector<double> sum_sq(index.num_nodes(), 0.0);
  std::vector<BlockPostingList::EntryRef> entries;
  for (TokenId t = 0; t < index.vocabulary_size(); ++t) {
    const BlockPostingList& list = *index.block_list(t);
    const double idf = stats.Idf(stats.global_df[t]);
    for (size_t b = 0; b < list.num_blocks(); ++b) {
      ASSERT_TRUE(list.DecodeBlockEntries(b, &entries).ok());
      for (const BlockPostingList::EntryRef& e : entries) {
        const double tf = static_cast<double>(e.header.pos_count) /
                          index.unique_tokens(e.header.node);
        sum_sq[e.header.node] += tf * idf * tf * idf;
      }
    }
  }
  for (NodeId n = 0; n < index.num_nodes(); ++n) {
    ASSERT_GT(sum_sq[n], 0.0);
    EXPECT_NEAR(index.node_norm(n), std::sqrt(sum_sq[n]),
                1e-14 * std::sqrt(sum_sq[n]))
        << "node " << n;
  }
}

TEST(NormSumTest, LargestTermsStayInsideTheDocumentedBound) {
  // The largest idf Idf can return: one live occurrence among 2^64 - 1
  // live nodes.
  SegmentScoringStats stats;
  stats.live_nodes = std::numeric_limits<uint64_t>::max();
  const double max_idf = stats.Idf(1);
  EXPECT_LT(max_idf * max_idf, std::ldexp(1.0, kIdfSquaredBits));
  const uint64_t weight = NormWeight(max_idf);
  EXPECT_LT(weight, uint64_t{1} << (kIdfSquaredBits + kNormFractionBits));
  // The largest term: a node whose whole uint32 position count is one
  // token's, which is also the largest sum any node can reach.
  const uint32_t max_count = std::numeric_limits<uint32_t>::max();
  const NormSum term = NormTerm(max_count, weight);
  const NormSum bound = NormSum{1} << (64 + kIdfSquaredBits + kNormFractionBits);
  EXPECT_TRUE(term < bound);
  EXPECT_TRUE(term / weight == NormSum{uint64_t{max_count} * max_count});  // no wrap
  const double norm = NodeNorm(term, 1);
  EXPECT_NEAR(norm, max_idf * max_count, 1e-15 * max_idf * max_count);
  // The smallest idf of a live token, ln 2, keeps 52 significant bits.
  const double min_idf = std::log(2.0);
  EXPECT_GE(NormWeight(min_idf), uint64_t{1} << (kNormFractionBits - 2));
  EXPECT_EQ(NormWeight(0.0), 0u);
  EXPECT_EQ(NodeNorm(0, 7), 1.0);
}

/// The documents `nodes` of `src`, in that order, in a corpus of their own.
/// When `intern_first` is given its spellings are interned first, in its
/// order, so token ids follow it rather than first appearance.
Corpus Rebuilt(const Corpus& src, const std::vector<NodeId>& nodes,
               const std::vector<std::string>& intern_first = {}) {
  Corpus out;
  for (const std::string& token : intern_first) out.InternToken(token);
  for (const NodeId n : nodes) {
    const TokenizedDocument& doc = src.doc(n);
    std::vector<RawToken> tokens;
    for (size_t i = 0; i < doc.size(); ++i) {
      tokens.push_back({src.token_text(doc.tokens[i]), doc.positions[i]});
    }
    out.AddAnalyzedDocument(tokens);
  }
  return out;
}

/// Same bits: the two spans compare equal under memcmp.
bool SameBits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// A 12,000-node corpus of the default shape (~2.1M occurrences: a
/// single-shot build sums its norms on up to four workers), cut into three
/// uneven segments: the first (~1.1M occurrences) sums on two workers, the
/// others on one.
class NormInvarianceTest : public ::testing::Test {
 protected:
  static const Corpus& TheCorpus() {
    static const Corpus* corpus = [] {
      CorpusGenOptions opts;
      opts.num_nodes = 12000;
      opts.seed = 5;
      return new Corpus(GenerateCorpus(opts));
    }();
    return *corpus;
  }

  static const InvertedIndex& Full() {
    static const InvertedIndex* full =
        new InvertedIndex(IndexBuilder::Build(TheCorpus()));
    return *full;
  }

  static constexpr NodeId kCuts[4] = {0, 6500, 9000, 12000};

  static std::vector<std::shared_ptr<const InvertedIndex>> Segments() {
    std::vector<std::shared_ptr<const InvertedIndex>> segments;
    for (size_t s = 0; s < 3; ++s) {
      auto slice = TheCorpus().Slice(kCuts[s], kCuts[s + 1]);
      EXPECT_TRUE(slice.ok());
      segments.push_back(
          std::make_shared<const InvertedIndex>(IndexBuilder::Build(*slice)));
    }
    return segments;
  }
};

TEST_F(NormInvarianceTest, SegmentsMergesAndShardsStoreTheSingleShotBits) {
  const SegmentScoringStats full = Full().scoring_stats();
  const std::vector<std::shared_ptr<const InvertedIndex>> segments = Segments();

  // Three segments, no deletes: per-segment norms under the global df.
  {
    auto snap = IndexSnapshot::Create(segments);
    ASSERT_TRUE(snap.ok());
    auto stats = (*snap)->ScoringStats();
    ASSERT_TRUE(stats.ok());
    std::vector<double> norms;
    double min_uniq_norm = std::numeric_limits<double>::infinity();
    for (const SegmentScoringStats& st : *stats) {
      norms.insert(norms.end(), st.norms.begin(), st.norms.end());
      min_uniq_norm = std::min(min_uniq_norm, st.min_uniq_norm);
    }
    EXPECT_TRUE(SameBits(norms, full.norms));
    EXPECT_TRUE(SameBits({&min_uniq_norm, 1}, {&full.min_uniq_norm, 1}));
  }

  // Each segment as a shard scored under the corpus-global df.
  {
    std::unordered_map<std::string, uint32_t> df_by_text;
    for (const auto& segment : segments) {
      ASSERT_TRUE(AddLiveDfByText(*segment, nullptr, &df_by_text).ok());
    }
    for (size_t s = 0; s < 3; ++s) {
      auto shard = IndexSnapshot::CreateSharded(segments[s], TheCorpus().num_nodes(),
                                                df_by_text);
      ASSERT_TRUE(shard.ok());
      auto stats = (*shard)->ScoringStats();
      ASSERT_TRUE(stats.ok());
      const std::span<const double> want =
          full.norms.subspan(kCuts[s], kCuts[s + 1] - kCuts[s]);
      EXPECT_TRUE(SameBits((*stats)[0].norms, want)) << "shard " << s;
    }
  }

  // The merge of the three segments is the single-shot index again.
  {
    std::vector<SegmentView> views;
    NodeId base = 0;
    for (const auto& segment : segments) {
      views.push_back({.index = segment.get(), .base = base});
      base += static_cast<NodeId>(segment->num_nodes());
    }
    auto merged = MergeSegments(views, {});
    ASSERT_TRUE(merged.ok());
    const SegmentScoringStats own = merged->scoring_stats();
    EXPECT_TRUE(SameBits(own.norms, full.norms));
    EXPECT_TRUE(SameBits({&own.min_uniq_norm, 1}, {&full.min_uniq_norm, 1}));
  }
}

TEST_F(NormInvarianceTest, TombstonedSegmentsAndTheirMergeStoreTheSurvivorsBits) {
  const std::vector<std::shared_ptr<const InvertedIndex>> segments = Segments();
  // Delete every seventh node, and every node of a stretch of the last
  // segment: some tokens lose every live occurrence.
  std::vector<std::shared_ptr<const TombstoneSet>> tombstones;
  std::vector<NodeId> survivors;
  for (size_t s = 0; s < 3; ++s) {
    auto dead = std::make_shared<TombstoneSet>(segments[s]->num_nodes());
    for (NodeId n = kCuts[s]; n < kCuts[s + 1]; ++n) {
      if (n % 7 == 3 || (n >= 10000 && n < 10400)) {
        dead->MarkDeleted(n - kCuts[s]);
      } else {
        survivors.push_back(n);
      }
    }
    tombstones.push_back(std::move(dead));
  }
  const InvertedIndex want_index = IndexBuilder::Build(Rebuilt(TheCorpus(), survivors));
  const SegmentScoringStats want = want_index.scoring_stats();

  auto snap = IndexSnapshot::Create(segments, tombstones);
  ASSERT_TRUE(snap.ok());
  auto stats = (*snap)->ScoringStats();
  ASSERT_TRUE(stats.ok());
  std::vector<double> live_norms;
  double min_uniq_norm = std::numeric_limits<double>::infinity();
  for (size_t s = 0; s < 3; ++s) {
    const SegmentScoringStats& st = (*stats)[s];
    for (NodeId n = 0; n < st.norms.size(); ++n) {
      if (!tombstones[s]->Contains(n)) live_norms.push_back(st.norms[n]);
    }
    min_uniq_norm = std::min(min_uniq_norm, st.min_uniq_norm);
  }
  EXPECT_TRUE(SameBits(live_norms, want.norms));
  EXPECT_TRUE(SameBits({&min_uniq_norm, 1}, {&want.min_uniq_norm, 1}));

  auto merged = MergeSegments((*snap)->segments(), {});
  ASSERT_TRUE(merged.ok());
  const SegmentScoringStats own = merged->scoring_stats();
  EXPECT_TRUE(SameBits(own.norms, want.norms));
  EXPECT_TRUE(SameBits({&own.min_uniq_norm, 1}, {&want.min_uniq_norm, 1}));
}

TEST_F(NormInvarianceTest, ShuffledInterningStoresTheSameBits) {
  // The same documents, with token ids in a shuffled order instead of
  // first appearance: every list is summed in another order.
  std::vector<std::string> vocabulary;
  for (TokenId t = 0; t < TheCorpus().vocabulary_size(); ++t) {
    vocabulary.push_back(TheCorpus().token_text(t));
  }
  std::shuffle(vocabulary.begin(), vocabulary.end(), std::mt19937(11));
  std::vector<NodeId> all(TheCorpus().num_nodes());
  for (NodeId n = 0; n < all.size(); ++n) all[n] = n;
  const InvertedIndex shuffled =
      IndexBuilder::Build(Rebuilt(TheCorpus(), all, vocabulary));
  ASSERT_NE(shuffled.token_text(0), Full().token_text(0));
  const SegmentScoringStats a = shuffled.scoring_stats();
  const SegmentScoringStats b = Full().scoring_stats();
  EXPECT_TRUE(SameBits(a.norms, b.norms));
  EXPECT_TRUE(SameBits({&a.min_uniq_norm, 1}, {&b.min_uniq_norm, 1}));
}

}  // namespace
}  // namespace fts
