// The read-path differential harness: every engine of the paper's
// BOOL ⊂ PPRED ⊂ NPRED ⊂ COMP hierarchy (Sections 3-5), reached through
// every way the system serves a query, must return exactly what the
// calculus says. Per seed, one random corpus (tests/random_workload.h) is
// split into three segments with random tombstoned deletes, and every index
// is built with a pair index (docs/pair_index.md). Two anchors pin all of
// it:
//
//   nodes   the naive calculus evaluator over the surviving documents;
//   scores  a kSequential / PairRouting::kOff Searcher over a single-shot
//           build of the survivors, bit for bit (the reference the
//           end-to-end benchmark's correctness gate uses).
//
// Each cell compares nodes, score bits, engine and language class with
// the anchors, and the anchor's engine is the one its class selects. The
// matrix spans cursor mode x scoring model x pair routing x snapshot shape
// (one segment heap and mmap, three tombstoned segments heap and mmap) x
// top_k in {0, 10}. The MergeSegments output is pinned byte for byte to
// the single-shot build, so the one-segment cells cover it. The matrix
// runs in three cases: OneIndexPathsMatchTheAnchors and
// SegmentedPathsMatchTheAnchors take the serving default (kAuto) over the
// one-segment and the segmented shapes; PairRoutingMatchesTheAnchors takes
// kOff and kForce over every shape.
//
// The sample: 10 seeds, each a 30-document corpus with 76 queries (32
// random BOOL, 6 PPRED and 5 NPRED pipelined, 4 COMP-only, 12 structural,
// 17 pair-shaped), 760 in all. The serving cases run seeds 1 and 2.
//
// CMakeLists.txt registers this one binary with CTest as six slices,
// named after the cases they run:
//
//   read_path_class_engines_test  ClassEnginesMatchTheAnchors
//   read_path_segmented_test      SegmentedPathsMatchTheAnchors
//   read_path_pair_routing_test   PairRoutingMatchesTheAnchors,
//                                 NpredSinglePassHookMatchesPipeline
//   read_path_concurrent_test     ConcurrentPathsMatchTheAnchors
//   read_path_cluster_test        ShardedClusterMatchesTheAnchors,
//                                 ReadPathClusterTest.*
//   read_path_one_index_and_merge_test  every other case:
//                                 OneIndexPathsMatchTheAnchors, MergePins.*
//
// Where each behaviour of the suites this harness replaced is checked now:
//
//   engines_differential: engines vs the oracle, seek vs sequential score
//     bits -> OneIndexPathsMatchTheAnchors, ClassEnginesMatchTheAnchors;
//     NPRED all-total-orders mode, NPRED on PPRED queries, COMP on every
//     query -> ClassEnginesMatchTheAnchors; samepara/samesentence and
//     negations -> StructuralQuery in the query mix; SeekEfficiencyTest ->
//     bool_engine_test.cc.
//   block_resident_differential: each class's engine over the block lists,
//     built directly under every cursor mode, no shape declined ->
//     ClassEnginesMatchTheAnchors; heap vs lazily validated mmap twin ->
//     OneIndexPathsMatchTheAnchors; block lists and cursor stream/seek vs
//     raw reference lists (tests/raw_postings.h) ->
//     block_posting_list_test.cc, inverted_index_test.cc.
//   multi_segment_differential: three segments with tombstones vs the
//     single-shot build, tombstoned ids never surfacing, ranked top-10 ==
//     TopK over the full result, the MergeSegments output ->
//     SegmentedPathsMatchTheAnchors.
//   pair_plan_differential: kForce and kOff vs the anchor bit for bit, kOff
//     never touching pair lists, pair_seeks > 0 iff routable, routing
//     through tombstoned segments -> PairRoutingMatchesTheAnchors; kAuto
//     vs the anchor, never routing under forced cursor modes -> the two
//     kAuto cases; the NPRED single-pass hook ->
//     NpredSinglePassHookMatchesPipeline.
//   concurrent_query: 8 threads sharing one small L2, the first-touch race
//     on a cold mapped and a cold heap load, SearchService::SearchBatch ->
//     ConcurrentPathsMatchTheAnchors.
//   net_scatter_gather: a 3-shard ShardRouter over loopback FtsServers with
//     the stats exchange -> ShardedClusterMatchesTheAnchors; RouterServer,
//     shard death, unscored top-k as a prefix -> ReadPathClusterTest, which
//     also pins a pipelined router connection, the shard call timeout and
//     the failing shard's name from the stats exchange.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <future>
#include <initializer_list>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "calculus/naive_eval.h"
#include "common/rng.h"
#include "eval/searcher.h"
#include "exec/exec_context.h"
#include "exec/search_service.h"
#include "index/index_builder.h"
#include "index/index_io.h"
#include "index/index_snapshot.h"
#include "index/pair_index.h"
#include "index/segment_merger.h"
#include "index/shared_block_cache.h"
#include "index/tombstone_set.h"
#include "lang/translate.h"
#include "net/client.h"
#include "net/server.h"
#include "net/shard_router.h"
#include "net/socket.h"
#include "net/wire.h"
#include "scoring/topk.h"
#include "text/corpus.h"

#include "random_workload.h"

namespace fts {
namespace {

constexpr size_t kSegments = 3;
constexpr size_t kTopK = 10;
constexpr int kThreads = 8;
constexpr uint32_t kMaxDistance = 4;

constexpr ScoringKind kAllScoring[] = {ScoringKind::kNone, ScoringKind::kTfIdf,
                                       ScoringKind::kProbabilistic};
constexpr size_t kTfIdf = 1;
constexpr size_t kProbabilistic = 2;
constexpr CursorMode kAllModes[] = {CursorMode::kSequential, CursorMode::kSeek,
                                    CursorMode::kAdaptive};

/// Unwraps a set-up result; without it there is nothing to compare.
template <typename T>
T Must(StatusOr<T> s) {
  if (!s.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n", s.status().ToString().c_str());
    std::abort();
  }
  return std::move(s).value();
}

IndexBuildOptions PairBuild() {
  IndexBuildOptions options;
  options.pairs.frequent_terms = 3;  // half the 6-token test vocabulary
  options.pairs.max_distance = kMaxDistance;
  return options;
}

/// A temp file name. It carries the process id: CTest runs slices of this
/// binary in parallel, and one must not rewrite a file another has mapped.
std::string TempPath(const std::string& tag) {
  return ::testing::TempDir() + "/fts_read_path_" + std::to_string(::getpid()) + "_" +
         tag + ".idx";
}

/// The bytes SaveIndexToFile writes for `index`.
std::string SavedBytes(const InvertedIndex& index, const std::string& tag) {
  const std::string path = TempPath(tag);
  EXPECT_TRUE(SaveIndexToFile(index, path).ok());
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  return bytes;
}

/// Round-trips `src` through a temp file and loads it back with `mode`
/// (default: mapped); either way no block is validated until its first
/// decode. The file is removed at once; a mapping pins the inode.
std::shared_ptr<const InvertedIndex> LoadTwin(
    const InvertedIndex& src, const std::string& tag,
    LoadOptions::Mode mode = LoadOptions::Mode::kMmap) {
  const std::string path = TempPath(tag);
  EXPECT_TRUE(SaveIndexToFile(src, path).ok());
  auto twin = std::make_shared<InvertedIndex>();
  EXPECT_TRUE(LoadIndexFromFile(path, twin.get(), {.mode = mode}).ok());
  std::remove(path.c_str());
  EXPECT_EQ(twin->MappedBytes() > 0, mode == LoadOptions::Mode::kMmap);
  return twin;
}

/// Copies document `id` of `src` into `dst` verbatim (token spellings and
/// exact positions), so the copy tokenizes identically.
void AppendDoc(const Corpus& src, NodeId id, Corpus* dst) {
  const TokenizedDocument& d = src.doc(id);
  std::vector<std::string> tokens;
  tokens.reserve(d.tokens.size());
  for (TokenId t : d.tokens) tokens.push_back(src.token_text(t));
  Must(dst->AddTokensWithPositions(tokens, d.positions));
}

/// SOME v0 SOME v1 (v0 HAS a AND v1 HAS b AND pred(v0, v1, k)) — the shape
/// the pair planner recognizes.
LangExprPtr PairQuery(const std::string& a, const std::string& b, const char* pred,
                      int64_t k) {
  LangExprPtr body = LangExpr::And(
      LangExpr::And(LangExpr::VarHasToken("v0", a), LangExpr::VarHasToken("v1", b)),
      LangExpr::Pred(pred, {"v0", "v1"}, {k}));
  return LangExpr::Some("v0", LangExpr::Some("v1", std::move(body)));
}

/// SOME p SOME q (p HAS t1 AND q HAS t2 AND pred(p, q)) over the corpus's
/// sentence/paragraph structure, positive or negated.
LangExprPtr StructuralQuery(Rng* rng) {
  static const char* kPreds[] = {"samepara", "samesentence", "not_samepara",
                                 "not_samesentence"};
  LangExprPtr body = LangExpr::And(
      LangExpr::And(LangExpr::VarHasToken("p", RandomWorkloadToken(rng)),
                    LangExpr::VarHasToken("q", RandomWorkloadToken(rng))),
      LangExpr::Pred(kPreds[rng->Uniform(4)], {"p", "q"}, {}));
  return LangExpr::Some("p", LangExpr::Some("q", std::move(body)));
}

struct Query {
  LangExprPtr expr;
  /// Pair-shaped queries only: whether the single-shot index's pair lists
  /// serve it (PairRouting::kForce must route iff this holds).
  std::optional<bool> routable;
  /// Whether its text names distance, odistance or not_distance. Only
  /// the first two can take the pair path; without any, every pair
  /// routing runs the same plan, so only kAuto is checked.
  bool distance_pred = false;
};

/// One way of serving the survivors.
struct Shape {
  std::string name;
  std::shared_ptr<const IndexSnapshot> snapshot;
  /// The three tombstoned segments: global ids still count deleted
  /// documents and map through World::survivor_id.
  bool segmented = false;
};

/// Everything one seed checks against, built once.
struct World {
  Corpus surviving;
  /// Pre-delete global id -> the survivors' dense id; kInvalidNode when
  /// deleted.
  std::vector<NodeId> survivor_id;
  /// The single-shot build of the survivors, its mmap twin, and the
  /// MergeSegments output of the three segments.
  std::shared_ptr<const InvertedIndex> reference, reference_mmap, merged;
  /// The same build and merge without pair lists (IngestService's default).
  std::shared_ptr<const InvertedIndex> reference_plain, merged_plain;
  std::vector<Query> queries;
  std::vector<Shape> shapes;
  std::vector<std::vector<NodeId>> naive;  // per query
  /// anchor[s][q]: the score anchor's answer to query q under
  /// kAllScoring[s]; ranked[s][q]: the top-k request's expected answer.
  std::vector<RoutedResult> anchor[3];
  std::vector<RoutedResult> ranked[3];
};

/// What a top-k request must return: TopK over the full result (unscored:
/// the first k nodes, without scores).
RoutedResult Ranked(const RoutedResult& full, size_t k) {
  RoutedResult out = full;
  out.result.nodes.clear();
  out.result.scores.clear();
  if (full.result.scores.empty()) {
    const size_t n = std::min(k, full.result.nodes.size());
    out.result.nodes.assign(full.result.nodes.begin(), full.result.nodes.begin() + n);
    return out;
  }
  for (const ScoredNode& s : TopK(full.result.nodes, full.result.scores, k)) {
    out.result.nodes.push_back(s.node);
    out.result.scores.push_back(s.score);
  }
  return out;
}

void AddQueries(Rng* rng, const InvertedIndex& reference, std::vector<Query>* out) {
  for (int i = 0; i < 32; ++i) out->push_back({RandomBoolQuery(rng, 3), {}});
  for (int i = 0; i < 6; ++i) out->push_back({RandomPipelinedQuery(rng, false), {}});
  for (int i = 0; i < 5; ++i) out->push_back({RandomPipelinedQuery(rng, true), {}});
  for (int i = 0; i < 4; ++i) {
    // COMP-only shapes: universal quantification (IL_ANY scans) and
    // complement conjunctions, where tombstones must shrink the scan
    // universe, not just filter lists.
    LangExprPtr q =
        rng->Bernoulli(0.5)
            ? LangExpr::Every(
                  "p", LangExpr::Or(LangExpr::VarHasToken("p", RandomWorkloadToken(rng)),
                                    LangExpr::VarHasToken("p", RandomWorkloadToken(rng))))
            : LangExpr::And(LangExpr::Not(LangExpr::Token(RandomWorkloadToken(rng))),
                            LangExpr::Not(LangExpr::Token(RandomWorkloadToken(rng))));
    out->push_back({std::move(q), {}});
  }
  for (int i = 0; i < 12; ++i) out->push_back({StructuralQuery(rng), {}});
  // Pair-shaped: both predicate spellings, every distance up to past the
  // stored window, then shapes that can never route (self-pair, OOV).
  const PairIndex& pairs = *reference.pair_index();
  for (const char* pred : {"distance", "odistance"}) {
    for (int64_t k = 0; k <= static_cast<int64_t>(kMaxDistance) + 2; ++k) {
      const std::string a = RandomWorkloadToken(rng);
      std::string b = RandomWorkloadToken(rng);
      while (b == a) b = RandomWorkloadToken(rng);
      const TokenId ta = reference.LookupToken(a), tb = reference.LookupToken(b);
      const bool routable = ta != kInvalidToken && tb != kInvalidToken &&
                            pairs.Find(ta, tb).eligible &&
                            k <= static_cast<int64_t>(kMaxDistance);
      out->push_back({PairQuery(a, b, pred, k), routable});
    }
  }
  out->push_back({PairQuery("a", "a", "distance", 2), false});
  out->push_back({PairQuery("a", "zzz", "distance", 2), false});
  out->push_back({PairQuery("zzz", "qqq", "odistance", 1), false});
  for (Query& q : *out) {
    q.distance_pred = q.expr->ToString().find("distance(") != std::string::npos;
  }
}

std::unique_ptr<World> MakeWorld(uint64_t seed) {
  auto w = std::make_unique<World>();
  const std::string tag = std::to_string(seed);
  Rng rng(seed * 6151 + 23);
  const Corpus full = RandomWorkloadCorpus(&rng, 30, 6);
  const size_t n = full.num_nodes();
  std::vector<bool> deleted(n);  // document 0 always survives
  for (size_t i = 0; i < n; ++i) deleted[i] = i > 0 && rng.Bernoulli(0.25);

  // Contiguous split: segment s owns global ids [s*n/3, (s+1)*n/3).
  std::vector<Corpus> parts(kSegments);
  w->survivor_id.assign(n, kInvalidNode);
  NodeId dense = 0;
  for (size_t i = 0; i < n; ++i) {
    AppendDoc(full, static_cast<NodeId>(i), &parts[i * kSegments / n]);
    if (deleted[i]) continue;
    w->survivor_id[i] = dense++;
    AppendDoc(full, static_cast<NodeId>(i), &w->surviving);
  }

  std::vector<std::shared_ptr<const InvertedIndex>> heap, mapped;
  std::vector<std::shared_ptr<const TombstoneSet>> tombstones;
  std::vector<SegmentView> views;
  NodeId base = 0;
  for (size_t s = 0; s < kSegments; ++s) {
    auto seg =
        std::make_shared<InvertedIndex>(IndexBuilder::Build(parts[s], PairBuild()));
    std::shared_ptr<TombstoneSet> dead;  // null when nothing is deleted
    for (NodeId local = 0; local < seg->num_nodes(); ++local) {
      if (!deleted[base + local]) continue;
      if (!dead) dead = std::make_shared<TombstoneSet>(seg->num_nodes());
      dead->MarkDeleted(local);
    }
    views.push_back({seg.get(), base, dead.get()});
    base += static_cast<NodeId>(seg->num_nodes());
    mapped.push_back(LoadTwin(*seg, tag + "_" + std::to_string(s)));
    heap.push_back(std::move(seg));
    tombstones.push_back(std::move(dead));
  }
  w->reference =
      std::make_shared<InvertedIndex>(IndexBuilder::Build(w->surviving, PairBuild()));
  w->merged = std::make_shared<InvertedIndex>(Must(MergeSegments(views, PairBuild())));
  w->reference_plain = std::make_shared<InvertedIndex>(IndexBuilder::Build(w->surviving));
  w->merged_plain = std::make_shared<InvertedIndex>(Must(MergeSegments(views)));
  w->reference_mmap = LoadTwin(*w->reference, tag);
  w->shapes = {
      {"single/heap", IndexSnapshot::ForIndex(w->reference.get()), false},
      {"single/mmap", IndexSnapshot::ForIndex(w->reference_mmap.get()), false},
      {"segments/heap", Must(IndexSnapshot::Create(heap, tombstones, 1)), true},
      {"segments/mmap", Must(IndexSnapshot::Create(mapped, tombstones, 1)), true},
  };

  AddQueries(&rng, *w->reference, &w->queries);
  for (const Query& q : w->queries) {
    NaiveCalculusEvaluator oracle(&w->surviving);
    w->naive.push_back(Must(oracle.Evaluate(Must(TranslateToCalculus(q.expr)))));
  }
  for (size_t s = 0; s < 3; ++s) {
    const Searcher anchor(IndexSnapshot::ForIndex(w->reference.get()),
                          {kAllScoring[s], CursorMode::kSequential, PairRouting::kOff});
    for (const Query& q : w->queries) {
      ExecContext ctx;
      w->anchor[s].push_back(Must(anchor.SearchParsed(q.expr, ctx)));
      w->ranked[s].push_back(Ranked(w->anchor[s].back(), kTopK));
    }
  }
  return w;
}

const World& GetWorld(uint64_t seed) {
  static std::map<uint64_t, std::unique_ptr<World>> worlds;
  std::unique_ptr<World>& slot = worlds[seed];
  if (!slot) slot = MakeWorld(seed);
  return *slot;
}

/// `nodes` in the survivors' dense numbering: kInvalidNode marks a
/// tombstoned or out-of-range id, which no anchor contains.
std::vector<NodeId> DenseNodes(const World& w, const Shape& shape,
                               const std::vector<NodeId>& nodes) {
  if (!shape.segmented) return nodes;
  std::vector<NodeId> out;
  out.reserve(nodes.size());
  for (const NodeId n : nodes) {
    out.push_back(n < w.survivor_id.size() ? w.survivor_id[n] : kInvalidNode);
  }
  return out;
}

std::vector<uint64_t> Bits(const std::vector<double>& scores) {
  std::vector<uint64_t> out(scores.size());
  if (!scores.empty()) std::memcpy(out.data(), scores.data(), scores.size() * 8);
  return out;
}

/// Why `got` differs from `want` (nodes, score bits, engine, class), or "".
std::string Divergence(const World& w, const Shape& shape, const RoutedResult& got,
                       const RoutedResult& want) {
  if (DenseNodes(w, shape, got.result.nodes) != want.result.nodes) return "nodes";
  if (Bits(got.result.scores) != Bits(want.result.scores)) return "score bits";
  if (got.engine != want.engine) return "engine " + got.engine + " not " + want.engine;
  if (got.language_class != want.language_class) return "language class";
  return "";
}

/// Whether the matrix evaluates `query` of class `cls` in a cell. Axes a
/// query's path does not have are not multiplied: pair routing exists only
/// in the PPRED and NPRED engines and only for distance-family predicates,
/// cursor modes not in COMP. A ranked request that block-max cannot serve
/// (anything but BOOL) runs the full evaluation the unranked cells check,
/// so it is checked once per shape and scoring model, in the default cell
/// (kAdaptive, kAuto).
bool InMatrix(const Query& query, LanguageClass cls, CursorMode mode, PairRouting routing,
              size_t top_k) {
  const bool pipelined = cls == LanguageClass::kPpred || cls == LanguageClass::kNpred;
  const bool serving_default =
      mode == CursorMode::kAdaptive && routing == PairRouting::kAuto;
  if ((!pipelined || !query.distance_pred) && routing != PairRouting::kAuto) return false;
  if (cls == LanguageClass::kComp && mode != CursorMode::kAdaptive) return false;
  if (top_k > 0 && cls > LanguageClass::kBool) return serving_default;
  return true;
}

/// The engine the Searcher selects for a query of class `cls`.
std::string ClassEngine(LanguageClass cls) {
  switch (cls) {
    case LanguageClass::kBoolNoNeg:
    case LanguageClass::kBool:
      return "BOOL";
    case LanguageClass::kPpred:
      return "PPRED";
    case LanguageClass::kNpred:
      return "NPRED";
    case LanguageClass::kComp:
      break;
  }
  return "COMP";
}

/// Pins MergeSegments over one segment per entry of `texts`, with the
/// local ids in `dead` tombstoned, to the single-shot build of the
/// surviving documents: the saved files must be equal byte for byte.
/// Returns the merged index.
InvertedIndex ExpectMergePinned(const std::vector<std::vector<std::string>>& texts,
                                const std::vector<std::vector<NodeId>>& dead,
                                const std::string& tag) {
  std::vector<std::shared_ptr<const InvertedIndex>> segments;
  std::vector<std::shared_ptr<TombstoneSet>> tombstones;
  std::vector<SegmentView> views;
  Corpus survivors;
  NodeId base = 0;
  for (size_t s = 0; s < texts.size(); ++s) {
    Corpus part;
    for (const std::string& text : texts[s]) part.AddDocument(text);
    segments.push_back(std::make_shared<InvertedIndex>(IndexBuilder::Build(part)));
    tombstones.push_back(std::make_shared<TombstoneSet>(part.num_nodes()));
    for (const NodeId n : dead[s]) tombstones.back()->MarkDeleted(n);
    for (NodeId n = 0; n < part.num_nodes(); ++n) {
      if (!tombstones.back()->Contains(n)) survivors.AddDocument(texts[s][n]);
    }
    views.push_back({segments.back().get(), base, tombstones.back().get()});
    base += static_cast<NodeId>(part.num_nodes());
  }
  InvertedIndex merged = Must(MergeSegments(views));
  EXPECT_TRUE(SavedBytes(merged, "edge_merged_" + tag) ==
              SavedBytes(IndexBuilder::Build(survivors), "edge_reference_" + tag))
      << tag << ": MergeSegments output differs from the single-shot build";
  return merged;
}

TEST(MergePins, EdgeCasesMatchTheSingleShotBuild) {
  // "zeta" first occurs in a deleted document: the merged dictionary must
  // order it by its first live occurrence, after "alpha" and "beta".
  ExpectMergePinned({{"zeta gamma", "alpha beta zeta"}, {"gamma alpha"}}, {{0}, {}},
                    "dead_first_occurrence");
  // A fully deleted segment between two live ones, whose tokens occur
  // nowhere else, and one whose tokens do.
  ExpectMergePinned({{"alpha beta"}, {"only here", "alpha"}, {"beta gamma"}},
                    {{}, {0, 1}, {}}, "deleted_segment");
  ExpectMergePinned({{"alpha"}, {"beta"}}, {{0}, {0}}, "everything_deleted");
  // Empty live documents keep their ids and appear in no list.
  ExpectMergePinned({{"", "alpha beta"}, {"", ""}, {"beta"}}, {{}, {1}, {}},
                    "empty_documents");
}

TEST(MergePins, DenseBlocksSpanningSegmentBoundaries) {
  // "common" occurs in every document, so its merged blocks are bitset
  // blocks whose id ranges cross the boundaries of the 48-document
  // segments; "rare" stays sparse. Every fifth document is deleted.
  std::vector<std::vector<std::string>> texts(4);
  std::vector<std::vector<NodeId>> dead(4);
  for (size_t s = 0; s < texts.size(); ++s) {
    for (NodeId n = 0; n < 48; ++n) {
      const size_t global = s * 48 + n;
      texts[s].push_back("common w" + std::to_string(global % 7) +
                         (global % 11 == 0 ? " rare" : "") + " common");
      if (global % 5 == 3) dead[s].push_back(n);
    }
  }
  const InvertedIndex merged = ExpectMergePinned(texts, dead, "dense_blocks");
  const BlockPostingList* common = merged.block_list_for_text("common");
  ASSERT_NE(common, nullptr);
  ASSERT_GE(common->num_blocks(), 1u);
  EXPECT_EQ(common->skip(0).encoding, BlockPostingList::kEncodingBitset);
  EXPECT_GT(common->skip(0).max_node, 48u);  // the first block spans segments
}

TEST(MergePins, TokenSpellingsAreKept) {
  // Corpus::AddAnalyzedDocument interns spellings verbatim; a merge must
  // not re-normalize them ("Apple" stays "Apple", not "apple").
  Corpus part;
  ASSERT_TRUE(part.AddAnalyzedDocument({{"Apple", {0, 0, 0}}, {"pie", {1, 0, 0}}}).ok());
  const InvertedIndex segment = IndexBuilder::Build(part);
  const InvertedIndex merged = Must(MergeSegments({{&segment, 0, nullptr}}));
  ASSERT_EQ(merged.vocabulary_size(), 2u);
  EXPECT_EQ(merged.token_text(0), "Apple");
  EXPECT_EQ(merged.LookupToken("Apple"), TokenId{0});
  EXPECT_EQ(merged.LookupToken("apple"), kInvalidToken);
  EXPECT_TRUE(SavedBytes(merged, "spelling_merged") ==
              SavedBytes(segment, "spelling_segment"));
}

class ReadPathDifferential : public ::testing::TestWithParam<uint64_t> {};

// The serving paths add threads and sockets, not new arithmetic: they run
// on the first seeds' worlds only.
class ReadPathServing : public ::testing::TestWithParam<uint64_t> {};

/// Checks every matrix cell of `shape` under `routings`: cursor mode x
/// scoring model x top_k. Adds the pair seeks the kForce cells took to
/// `forced_pair_seeks`.
void ExpectCellsMatch(const World& w, const Shape& shape,
                      std::initializer_list<PairRouting> routings,
                      uint64_t* forced_pair_seeks) {
  EXPECT_EQ(shape.snapshot->live_nodes(), w.surviving.num_nodes()) << shape.name;
  for (size_t s = 0; s < 3; ++s) {
    for (CursorMode mode : kAllModes) {
      for (PairRouting routing : routings) {
        const Searcher searcher(shape.snapshot, {kAllScoring[s], mode, routing});
        for (size_t q = 0; q < w.queries.size(); ++q) {
          for (size_t top_k : {size_t{0}, kTopK}) {
            if (!InMatrix(w.queries[q], w.anchor[s][q].language_class, mode, routing,
                          top_k)) {
              continue;
            }
            const auto cell = [&] {
              return shape.name + " " + ScoringKindToString(kAllScoring[s]) + " " +
                     CursorModeToString(mode) + " " + PairRoutingToString(routing) +
                     " top_k=" + std::to_string(top_k) + ": " +
                     w.queries[q].expr->ToString();
            };
            ExecContext ctx;
            ctx.set_top_k(top_k);
            auto got = searcher.SearchParsed(w.queries[q].expr, ctx);
            ASSERT_TRUE(got.ok()) << cell() << ": " << got.status().ToString();
            const RoutedResult& want = top_k == 0 ? w.anchor[s][q] : w.ranked[s][q];
            EXPECT_EQ(Divergence(w, shape, *got, want), "") << cell();
            const uint64_t pair_seeks = got->result.counters.pair_seeks;
            if (routing == PairRouting::kOff ||
                (routing == PairRouting::kAuto && mode != CursorMode::kAdaptive)) {
              // kOff never touches pair lists; forced cursor modes pin
              // the position pipeline even under kAuto.
              EXPECT_EQ(pair_seeks, 0u) << cell();
            }
            if (routing != PairRouting::kForce) continue;
            *forced_pair_seeks += pair_seeks;
            if (w.queries[q].routable && !shape.segmented) {
              EXPECT_EQ(pair_seeks > 0, *w.queries[q].routable) << cell();
            }
          }
        }
      }
    }
  }
}

// The matrix is split three ways so each slice runs on its own (see
// CMakeLists.txt): the serving default (kAuto) over one index, the same
// over the segmented shapes, and the explicit pair routings everywhere.

TEST_P(ReadPathDifferential, OneIndexPathsMatchTheAnchors) {
  const World& w = GetWorld(GetParam());
  for (size_t q = 0; q < w.queries.size(); ++q) {
    for (size_t s = 0; s < 3; ++s) {
      const RoutedResult& anchor = w.anchor[s][q];
      EXPECT_EQ(anchor.result.nodes, w.naive[q]) << w.queries[q].expr->ToString();
      // The anchor ran the engine its class selects, not the COMP
      // fallback; every cell's engine is compared with it.
      EXPECT_EQ(anchor.engine, ClassEngine(anchor.language_class))
          << w.queries[q].expr->ToString();
    }
  }
  uint64_t unused = 0;
  for (const Shape& shape : w.shapes) {
    if (!shape.segmented) ExpectCellsMatch(w, shape, {PairRouting::kAuto}, &unused);
  }
}

TEST_P(ReadPathDifferential, SegmentedPathsMatchTheAnchors) {
  const World& w = GetWorld(GetParam());
  // MergeSegments yields the survivors' index: its file is the
  // single-shot build's byte for byte, with pair lists and without, so the
  // one-segment cells cover it.
  const std::string tag = std::to_string(GetParam());
  const std::string merged = SavedBytes(*w.merged, "merged_" + tag);
  EXPECT_FALSE(merged.empty());
  EXPECT_TRUE(merged == SavedBytes(*w.reference, "reference_" + tag))
      << "MergeSegments output differs from the single-shot build";
  EXPECT_TRUE(SavedBytes(*w.merged_plain, "merged_plain_" + tag) ==
              SavedBytes(*w.reference_plain, "reference_plain_" + tag))
      << "pair-less MergeSegments output differs from the single-shot build";
  uint64_t unused = 0;
  for (const Shape& shape : w.shapes) {
    if (shape.segmented) ExpectCellsMatch(w, shape, {PairRouting::kAuto}, &unused);
  }
}

TEST_P(ReadPathDifferential, PairRoutingMatchesTheAnchors) {
  const World& w = GetWorld(GetParam());
  for (const Shape& shape : w.shapes) {
    uint64_t forced_pair_seeks = 0;
    ExpectCellsMatch(w, shape, {PairRouting::kOff, PairRouting::kForce},
                     &forced_pair_seeks);
    EXPECT_GT(forced_pair_seeks, 0u) << shape.name << ": no query took the pair path";
  }
}

TEST_P(ReadPathDifferential, ClassEnginesMatchTheAnchors) {
  // Each class's engine, constructed directly under every cursor mode with
  // pair routing off, over the block lists of the survivors' build. Also
  // the engines the Searcher never picks for these queries: NPRED on
  // PPRED-class queries, all-total-orders NPRED, and COMP on every query.
  const World& w = GetWorld(GetParam());
  const InvertedIndex& index = *w.reference;
  for (size_t s = 0; s < 3; ++s) {
    const ScoringKind scoring = kAllScoring[s];
    // COMP scores every class with its own algebra arithmetic, so only its
    // node sets are pinned to the anchor.
    const CompEngine comp(&index, scoring);
    for (size_t q = 0; q < w.queries.size(); ++q) {
      const LangExprPtr& expr = w.queries[q].expr;
      auto got = comp.Evaluate(expr);
      ASSERT_TRUE(got.ok()) << "COMP: " << expr->ToString() << ": "
                            << got.status().ToString();
      EXPECT_EQ(got->nodes, w.anchor[s][q].result.nodes) << "COMP: " << expr->ToString();
    }
    for (CursorMode mode : kAllModes) {
      const BoolEngine bool_engine(&index, scoring, mode);
      const PpredEngine ppred(&index, scoring, mode, PairRouting::kOff);
      const NpredEngine npred(&index, scoring,
                              NpredOrderingMode::kNecessaryPartialOrders, mode,
                              PairRouting::kOff);
      const NpredEngine total(&index, scoring, NpredOrderingMode::kAllTotalOrders,
                              mode, PairRouting::kOff);
      for (size_t q = 0; q < w.queries.size(); ++q) {
        const LangExprPtr& expr = w.queries[q].expr;
        std::vector<const Engine*> engines;
        switch (w.anchor[s][q].language_class) {
          case LanguageClass::kBoolNoNeg:
          case LanguageClass::kBool:
            engines = {&bool_engine};
            break;
          case LanguageClass::kPpred:
            engines = {&ppred, &npred};
            break;
          case LanguageClass::kNpred:
            engines = {&npred, &total};
            break;
          case LanguageClass::kComp:
            break;
        }
        for (const Engine* engine : engines) {
          // No generated shape is declined: a decline here would make the
          // Searcher fall back to COMP silently.
          auto got = engine->Evaluate(expr);
          ASSERT_TRUE(got.ok()) << engine->name() << ": " << expr->ToString() << ": "
                                << got.status().ToString();
          const RoutedResult& want = w.anchor[s][q];
          EXPECT_EQ(got->nodes, want.result.nodes)
              << engine->name() << " " << CursorModeToString(mode) << ": "
              << expr->ToString();
          // All-total-orders NPRED pins node sets only: a node scores as
          // the first ordering that matches it, and this mode enumerates a
          // different set of orderings.
          if (engine == &total) continue;
          EXPECT_EQ(Bits(got->scores), Bits(want.result.scores))
              << engine->name() << " " << ScoringKindToString(scoring) << " "
              << CursorModeToString(mode) << ": " << expr->ToString();
        }
      }
    }
  }
}

/// Runs every query from kThreads threads against `searcher`, each thread
/// with its own context over the shared `cache`, `rounds` times (later
/// rounds hit warm L1/L2 state), and fails on any divergence from the
/// anchors under kAllScoring[s].
void Hammer(const World& w, const Shape& shape, const Searcher& searcher,
            SharedBlockCache* cache, size_t s, int rounds, const std::string& what) {
  std::mutex failures_mu;
  std::vector<std::string> failures;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ExecOptions options;
      options.shared_cache = cache;
      ExecContext ctx(options);
      for (int round = 0; round < rounds; ++round) {
        for (size_t q = 0; q < w.queries.size(); ++q) {
          auto r = searcher.SearchParsed(w.queries[q].expr, ctx);
          const std::string failure = r.ok()
                                          ? Divergence(w, shape, *r, w.anchor[s][q])
                                          : r.status().ToString();
          if (failure.empty()) continue;
          std::lock_guard<std::mutex> lock(failures_mu);
          failures.push_back(what + ": thread " + std::to_string(t) + " query " +
                             std::to_string(q) + ": " + failure);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const std::string& f : failures) ADD_FAILURE() << f;
}

TEST_P(ReadPathServing, ConcurrentPathsMatchTheAnchors) {
  // Under ThreadSanitizer this is the data-race proof for the shared read
  // path: first-touch validation memoization, L2 lookups and evictions,
  // and the shared engines.
  const World& w = GetWorld(GetParam());
  SharedBlockCache::Options small;
  small.capacity_blocks = 64;  // eviction-churning
  small.shards = 4;
  for (const Shape* shape : {&w.shapes[0], &w.shapes[3]}) {
    for (CursorMode mode : kAllModes) {
      SharedBlockCache cache(small);
      const Searcher searcher(shape->snapshot, {ScoringKind::kTfIdf, mode});
      Hammer(w, *shape, searcher, &cache, kTfIdf, /*rounds=*/2,
             shape->name + "/" + CursorModeToString(mode));
    }
  }

  // Cold loads: every thread starts on a freshly loaded index at once, so
  // first-touch validation of the same blocks races maximally — mapped,
  // and read into the heap, whose blocks are validated the same way.
  for (const auto& [mode, name] :
       {std::pair{LoadOptions::Mode::kMmap, "cold-mmap"},
        std::pair{LoadOptions::Mode::kEager, "cold-heap"}}) {
    const auto cold =
        LoadTwin(*w.reference, std::string(name) + "_" + std::to_string(GetParam()), mode);
    const Shape cold_shape{name, IndexSnapshot::ForIndex(cold.get()), false};
    SharedBlockCache cache;
    const Searcher searcher(cold_shape.snapshot, {ScoringKind::kProbabilistic});
    Hammer(w, cold_shape, searcher, &cache, kProbabilistic, /*rounds=*/1, name);
  }

  // The worker pool: batch submission fans the queries (as surface text)
  // across workers, full and ranked.
  SearchService::Options options;
  options.num_workers = kThreads;
  options.scoring = ScoringKind::kTfIdf;
  SearchService service(w.reference.get(), options);
  std::vector<std::string> texts;
  for (const Query& q : w.queries) texts.push_back(q.expr->ToString());
  for (size_t top_k : {size_t{0}, kTopK}) {
    const std::vector<StatusOr<RoutedResult>> results = service.SearchBatch(texts, top_k);
    ASSERT_EQ(results.size(), texts.size());
    for (size_t q = 0; q < texts.size(); ++q) {
      ASSERT_TRUE(results[q].ok()) << texts[q] << ": " << results[q].status().ToString();
      const RoutedResult& want = top_k == 0 ? w.anchor[kTfIdf][q] : w.ranked[kTfIdf][q];
      EXPECT_EQ(Divergence(w, w.shapes[0], *results[q], want), "")
          << "service top_k=" << top_k << ": " << texts[q];
    }
  }
  const ServiceMetricsSnapshot m = service.metrics();
  EXPECT_EQ(m.submitted, 2 * texts.size());
  EXPECT_EQ(m.completed, 2 * texts.size());
  EXPECT_EQ(m.failed, 0u);
}

::testing::AssertionResult IsOk(const char* expr_text, const Status& s) {
  if (s.ok()) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << expr_text << ": " << s.ToString();
}

#define ASSERT_OK(expr) ASSERT_PRED_FORMAT1(IsOk, (expr))

/// Three loopback shard servers over contiguous, deliberately uneven
/// slices of `corpus`, plus a connected router.
struct Cluster {
  void Init(const Corpus& corpus, ScoringKind scoring, bool exchange_stats) {
    const NodeId n = static_cast<NodeId>(corpus.num_nodes());
    const NodeId cuts[4] = {0, n / 4, n / 2 + 1, n};
    net::ShardRouter::Options ropts;
    for (int i = 0; i < 3; ++i) {
      const Corpus slice = Must(corpus.Slice(cuts[i], cuts[i + 1]));
      net::FtsServer::Options sopts;
      sopts.name = "shard" + std::to_string(i);
      sopts.service.scoring = scoring;
      sopts.service.num_workers = 1;
      servers.push_back(std::make_unique<net::FtsServer>(
          std::make_shared<InvertedIndex>(IndexBuilder::Build(slice, PairBuild())),
          sopts));
      ASSERT_OK(servers.back()->Start());
      ropts.shards.push_back({"127.0.0.1", servers.back()->port()});
    }
    router = std::make_unique<net::ShardRouter>(ropts);
    ASSERT_OK(router->Connect());
    if (exchange_stats) {
      ASSERT_OK(router->ExchangeGlobalStats());
    }
  }

  std::vector<std::unique_ptr<net::FtsServer>> servers;
  std::unique_ptr<net::ShardRouter> router;
};

RoutedResult FromResponse(const net::SearchResponse& r) {
  RoutedResult out;
  out.result.nodes.assign(r.nodes.begin(), r.nodes.end());
  out.result.scores = r.scores;
  out.engine = r.engine;
  out.language_class = r.language_class;
  return out;
}

TEST_P(ReadPathServing, ShardedClusterMatchesTheAnchors) {
  // Scatter-gather through real sockets: after the global stats exchange,
  // shard scores are bit-identical to the single-index run.
  const World& w = GetWorld(GetParam());
  for (size_t s = 0; s < 3; ++s) {
    Cluster cluster;
    cluster.Init(w.surviving, kAllScoring[s], /*exchange_stats=*/true);
    if (HasFatalFailure()) return;
    ASSERT_EQ(cluster.router->total_nodes(), w.surviving.num_nodes());
    uint64_t entries_scanned = 0;
    for (size_t q = 0; q < w.queries.size(); ++q) {
      const std::string text = w.queries[q].expr->ToString();
      for (size_t top_k : {size_t{0}, kTopK}) {
        auto routed = cluster.router->Search(text, static_cast<uint32_t>(top_k));
        ASSERT_OK(routed.status()) << text;
        ASSERT_OK(routed->status) << text;
        const RoutedResult& want = top_k == 0 ? w.anchor[s][q] : w.ranked[s][q];
        EXPECT_EQ(Divergence(w, w.shapes[0], FromResponse(*routed), want), "")
            << ScoringKindToString(kAllScoring[s]) << " top_k=" << top_k << ": " << text;
        if (top_k == 0) entries_scanned += routed->counters.entries_scanned;
      }
    }
    // The field-wise counter merge saw real work.
    EXPECT_GT(entries_scanned, 0u);
  }
}

TEST_P(ReadPathDifferential, NpredSinglePassHookMatchesPipeline) {
  // The NPRED engine's no-negative-predicates single pass carries the same
  // pair hook as PPRED; drive it directly (the Searcher classifies these
  // queries as PPRED and never reaches it).
  const World& w = GetWorld(GetParam());
  for (const Query& q : w.queries) {
    if (!q.routable) continue;
    for (ScoringKind scoring : kAllScoring) {
      NpredEngine forced(w.reference.get(), scoring,
                         NpredOrderingMode::kNecessaryPartialOrders,
                         CursorMode::kAdaptive, PairRouting::kForce);
      NpredEngine pipeline(w.reference.get(), scoring,
                           NpredOrderingMode::kNecessaryPartialOrders,
                           CursorMode::kAdaptive, PairRouting::kOff);
      auto got = forced.Evaluate(q.expr);
      auto want = pipeline.Evaluate(q.expr);
      ASSERT_TRUE(got.ok()) << q.expr->ToString() << ": " << got.status().ToString();
      ASSERT_TRUE(want.ok()) << q.expr->ToString() << ": " << want.status().ToString();
      EXPECT_EQ(got->nodes, want->nodes) << q.expr->ToString();
      EXPECT_EQ(Bits(got->scores), Bits(want->scores)) << q.expr->ToString();
      EXPECT_EQ(got->counters.orderings_run, want->counters.orderings_run)
          << q.expr->ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReadPathDifferential,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));
INSTANTIATE_TEST_SUITE_P(Seeds, ReadPathServing, ::testing::Values(1, 2));

TEST(ReadPathClusterTest, RouterServerServesIdenticalResults) {
  // client -> RouterServer -> shards answers as the in-process router does.
  const World& w = GetWorld(1);
  Cluster cluster;
  cluster.Init(w.surviving, ScoringKind::kTfIdf, /*exchange_stats=*/true);
  if (HasFatalFailure()) return;
  net::RouterServer server(cluster.router.get(), net::RouterServer::Options());
  ASSERT_OK(server.Start());
  net::FtsClient::Options copts;
  copts.port = server.port();
  net::FtsClient client(copts);
  auto ping = client.Ping();
  ASSERT_OK(ping.status());
  EXPECT_EQ(ping->num_nodes, w.surviving.num_nodes());
  for (const Query& q : w.queries) {
    const std::string text = q.expr->ToString();
    auto direct = cluster.router->Search(text, 5);
    ASSERT_OK(direct.status()) << text;
    auto remote = client.Search(text, 5);
    ASSERT_OK(remote.status()) << text;
    ASSERT_OK(remote->status) << text;
    EXPECT_EQ(Divergence(w, w.shapes[0], FromResponse(*remote), FromResponse(*direct)),
              "")
        << text;
  }
  server.Stop();
}

TEST(ReadPathClusterTest, RouterConnectionPipelines) {
  // 32 searches in flight on one client connection to a RouterServer: its
  // reader scatters each on arrival while its writer gathers the earlier
  // ones. Every reply carries its request's id and matches the in-process
  // router.
  const World& w = GetWorld(1);
  Cluster cluster;
  cluster.Init(w.surviving, ScoringKind::kTfIdf, /*exchange_stats=*/true);
  if (HasFatalFailure()) return;
  net::RouterServer server(cluster.router.get(), net::RouterServer::Options());
  ASSERT_OK(server.Start());
  net::FtsClient::Options copts;
  copts.port = server.port();
  net::FtsClient client(copts);
  struct Call {
    std::string text;
    uint32_t top_k = 0;
    uint64_t id = 0;
    std::future<StatusOr<net::SearchResponse>> reply;
  };
  std::vector<Call> calls(32);
  for (size_t i = 0; i < calls.size(); ++i) {
    Call& c = calls[i];
    c.text = w.queries[(i * 7) % w.queries.size()].expr->ToString();
    c.top_k = i % 2 == 0 ? 0 : kTopK;
    net::SearchRequest req;
    req.query = c.text;
    req.top_k = c.top_k;
    c.reply = client.SearchAsync(std::move(req), &c.id);
  }
  for (Call& c : calls) {
    auto got = c.reply.get();
    ASSERT_OK(got.status()) << c.text;
    ASSERT_OK(got->status) << c.text;
    EXPECT_EQ(got->request_id, c.id) << c.text;
    auto direct = cluster.router->Search(c.text, c.top_k);
    ASSERT_OK(direct.status()) << c.text;
    EXPECT_EQ(Divergence(w, w.shapes[0], FromResponse(*got), FromResponse(*direct)), "")
        << c.text << " top_k=" << c.top_k;
  }
}

/// A shard built from the socket primitives alone. It answers Ping, and
/// holds every Search until `release_at` of them are waiting, then answers
/// them all with empty results; with `release_at` 0 it never answers one.
class FakeShard {
 public:
  explicit FakeShard(size_t release_at) : release_at_(release_at) {
    listener_ = Must(net::ListenTcp(0, &port_, /*loopback_only=*/true));
    thread_ = std::thread([this] { Serve(); });
  }
  /// Returns once the router that connected here has disconnected.
  ~FakeShard() {
    stop_.store(true);
    thread_.join();
  }

  uint16_t port() const { return port_; }

 private:
  void Serve() {
    net::Socket conn;
    while (!conn.valid() && !stop_.load()) {
      StatusOr<net::Socket> accepted =
          net::AcceptWithTimeout(listener_, net::kNoTimeout);
      if (accepted.ok()) conn = std::move(accepted).value();
    }
    std::vector<uint64_t> held;
    std::string payload;
    while (conn.valid() &&
           net::ReadFrame(conn, &payload, net::kMaxFrameBytes).ok()) {
      uint8_t type = 0;
      uint64_t id = 0;
      if (!net::PeekPrologue(payload, &type, &id).ok()) return;
      if (static_cast<net::MessageType>(type) == net::MessageType::kPingRequest) {
        net::PingResponse ping;
        ping.request_id = id;
        ping.server_name = "fake";
        ping.num_nodes = 3;
        (void)net::WriteAll(conn, net::EncodePingResponse(ping));
      } else if (static_cast<net::MessageType>(type) ==
                 net::MessageType::kSearchRequest) {
        held.push_back(id);
        if (held.size() != release_at_) continue;
        for (const uint64_t held_id : held) {
          net::SearchResponse resp;
          resp.request_id = held_id;
          (void)net::WriteAll(conn, net::EncodeSearchResponse(resp));
        }
        held.clear();
      }
    }
  }

  const size_t release_at_;
  net::Socket listener_;
  uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

TEST(ReadPathClusterTest, StalledShardFailsTheQueryAtTheCallTimeout) {
  // A shard that never answers must not hang a routed query: the gather
  // gives up at call_timeout, names the shard, and counts the failure.
  FakeShard stalled(/*release_at=*/0);
  net::ShardRouter::Options ropts;
  ropts.shards.push_back({"127.0.0.1", stalled.port()});
  ropts.call_timeout = std::chrono::milliseconds(200);
  net::ShardRouter router(ropts);
  ASSERT_OK(router.Connect());
  auto routed = router.Search("'a'");
  ASSERT_FALSE(routed.ok());
  EXPECT_EQ(routed.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(routed.status().message().find("shard 0"), std::string::npos)
      << routed.status().ToString();
  EXPECT_NE(router.MetricsText().find("fts_router_queries_failed 1"),
            std::string::npos);
  // Only the query's slot was dropped: the shard connection still serves.
  EXPECT_TRUE(router.Probe()[0].alive);
}

TEST(ReadPathClusterTest, RouterConnectionOverlapsQueries) {
  // The shard answers nothing until it holds two searches, so the first
  // reply can only come back if the router sent the second query before
  // the first was answered.
  FakeShard shard(/*release_at=*/2);
  net::ShardRouter::Options ropts;
  ropts.shards.push_back({"127.0.0.1", shard.port()});
  net::ShardRouter router(ropts);
  ASSERT_OK(router.Connect());
  net::RouterServer server(&router, net::RouterServer::Options());
  ASSERT_OK(server.Start());
  net::FtsClient::Options copts;
  copts.port = server.port();
  net::FtsClient client(copts);
  std::future<StatusOr<net::SearchResponse>> replies[2];
  for (auto& reply : replies) {
    net::SearchRequest req;
    req.query = "'a'";
    reply = client.SearchAsync(std::move(req));
  }
  for (auto& reply : replies) {
    auto got = reply.get();
    ASSERT_OK(got.status());
    ASSERT_OK(got->status);
    EXPECT_TRUE(got->nodes.empty());
  }
}

TEST(ReadPathClusterTest, QueryFailsWhenAShardDies) {
  // Exactness over availability: a partial scatter-gather answer would
  // silently drop a shard's documents, so the query must fail instead.
  Cluster cluster;
  cluster.Init(GetWorld(1).surviving, ScoringKind::kNone, /*exchange_stats=*/false);
  if (HasFatalFailure()) return;
  ASSERT_OK(cluster.router->Search("'a'").status());
  cluster.servers[1]->Stop();
  EXPECT_FALSE(cluster.router->Search("'a'").ok());
  bool any_dead = false;
  for (const net::ShardHealth& h : cluster.router->Probe()) any_dead |= !h.alive;
  EXPECT_TRUE(any_dead);
}

TEST(ReadPathClusterTest, StatsExchangeNamesTheFailingShard) {
  // The exchange asks every shard at once; a shard that cannot answer
  // still fails it under its own name.
  Cluster cluster;
  cluster.Init(GetWorld(1).surviving, ScoringKind::kTfIdf, /*exchange_stats=*/true);
  if (HasFatalFailure()) return;
  cluster.servers[1]->Stop();
  const Status s = cluster.router->ExchangeGlobalStats();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("shard 1 stats: "), std::string::npos) << s.ToString();

  // A shard that never answers fails it at the call timeout.
  FakeShard stalled(/*release_at=*/0);
  net::ShardRouter::Options ropts;
  ropts.shards.push_back({"127.0.0.1", stalled.port()});
  ropts.call_timeout = std::chrono::milliseconds(200);
  net::ShardRouter router(ropts);
  ASSERT_OK(router.Connect());
  const Status timed_out = router.ExchangeGlobalStats();
  EXPECT_EQ(timed_out.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(timed_out.message().find("shard 0 stats: "), std::string::npos)
      << timed_out.ToString();
}

TEST(ReadPathClusterTest, UnscoredTopKIsFirstKOfConcatenation) {
  const World& w = GetWorld(1);
  SearchService reference(w.reference.get());
  Cluster cluster;
  cluster.Init(w.surviving, ScoringKind::kNone, /*exchange_stats=*/false);
  if (HasFatalFailure()) return;
  auto want = reference.Search("'a' OR 'b'", 7);
  ASSERT_OK(want.status());
  auto routed = cluster.router->Search("'a' OR 'b'", 7);
  ASSERT_OK(routed.status());
  EXPECT_EQ(std::vector<NodeId>(routed->nodes.begin(), routed->nodes.end()),
            want->result.nodes);
}

}  // namespace
}  // namespace fts
