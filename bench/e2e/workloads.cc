#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <unordered_set>

#include "harness.h"

namespace fts::e2e {

namespace {

std::string Quote(const std::string& token) { return "'" + token + "'"; }

/// `k` distinct values of [0, n), in random order.
std::vector<uint32_t> Distinct(uint32_t n, uint32_t k, Rng* rng) {
  std::vector<uint32_t> all(n);
  std::iota(all.begin(), all.end(), 0);
  for (uint32_t i = 0; i < k; ++i) {
    std::swap(all[i], all[i + rng->Uniform(n - i)]);
  }
  all.resize(k);
  return all;
}

/// SOME p SOME q (p HAS 'a' AND q HAS 'b' AND <preds joined by AND>)
std::string TwoVariableQuery(const std::string& a, const std::string& b,
                             const std::vector<std::string>& preds) {
  std::string q = "SOME p SOME q (p HAS " + Quote(a) + " AND q HAS " + Quote(b);
  for (const std::string& p : preds) q += " AND " + p;
  return q + ")";
}

constexpr uint32_t kTopics = 8;

std::string PaperBool(Rng* rng) {
  const std::vector<uint32_t> t =
      Distinct(kTopics, static_cast<uint32_t>(rng->UniformRange(2, 5)), rng);
  const bool negate_last = rng->Bernoulli(0.25);
  std::string q;
  for (size_t i = 0; i < t.size(); ++i) {
    if (i > 0) q += (negate_last && i + 1 == t.size()) ? " AND NOT " : " AND ";
    q += Quote(TopicToken(t[i]));
  }
  return q;
}

std::string PaperPredicates(Rng* rng, const std::vector<std::string>& forms) {
  const std::vector<uint32_t> t = Distinct(kTopics, 2, rng);
  const std::vector<uint32_t> p = Distinct(
      static_cast<uint32_t>(forms.size()),
      static_cast<uint32_t>(rng->UniformRange(1, 2)), rng);
  std::vector<std::string> preds;
  for (uint32_t i : p) preds.push_back(forms[i]);
  return TwoVariableQuery(TopicToken(t[0]), TopicToken(t[1]), preds);
}

std::string PaperPpred(Rng* rng) {
  static const std::vector<std::string> kForms = {
      "distance(p, q, 5)", "distance(p, q, 20)", "distance(p, q, 50)",
      "ordered(p, q)",     "samepara(p, q)",     "odistance(p, q, 0)"};
  return PaperPredicates(rng, kForms);
}

std::string PaperNpred(Rng* rng) {
  static const std::vector<std::string> kForms = {
      "not_distance(p, q, 5)", "not_distance(p, q, 20)",
      "not_distance(p, q, 50)", "not_ordered(p, q)", "not_samepara(p, q)"};
  return PaperPredicates(rng, kForms);
}

std::string PaperComp(Rng* rng) {
  const std::vector<uint32_t> t = Distinct(kTopics, 3, rng);
  return Quote(TopicToken(t[0])) + " AND NOT (" +
         TwoVariableQuery(TopicToken(t[1]), TopicToken(t[2]),
                          {"not_distance(p, q, 1)"}) +
         ")";
}

/// ranked_sharded vocabulary: w1..w200 plus the topic tokens.
std::string RankedTerm(Rng* rng) {
  const uint64_t i = rng->Uniform(200 + kTopics);
  return i < 200 ? BackgroundToken(static_cast<uint32_t>(i + 1))
                 : TopicToken(static_cast<uint32_t>(i - 200));
}

std::string RankedJoin(Rng* rng, size_t n, const char* op) {
  std::vector<std::string> terms;
  while (terms.size() < n) {
    std::string t = RankedTerm(rng);
    if (std::find(terms.begin(), terms.end(), t) == terms.end()) {
      terms.push_back(std::move(t));
    }
  }
  std::string q;
  for (const std::string& t : terms) q += (q.empty() ? "" : op) + Quote(t);
  return q;
}

/// Phrase or NEAR/k with one side among w1..w8, well inside every shard's
/// 16-term frequent head, so the pair lists can answer it.
std::string RankedPair(Rng* rng, const std::string& predicate) {
  const std::string head = BackgroundToken(static_cast<uint32_t>(rng->UniformRange(1, 8)));
  std::string other = RankedTerm(rng);
  while (other == head) other = RankedTerm(rng);
  return rng->Bernoulli(0.5) ? TwoVariableQuery(head, other, {predicate})
                             : TwoVariableQuery(other, head, {predicate});
}

/// uniform_mmap vocabulary: w50..w2000, drawn uniformly.
std::pair<std::string, std::string> UniformPair(Rng* rng) {
  const std::vector<uint32_t> t = Distinct(1951, 2, rng);
  return {BackgroundToken(50 + t[0]), BackgroundToken(50 + t[1])};
}

std::vector<Shape> PaperShapes(bool reads_beside_writes) {
  if (reads_beside_writes) {
    return {{"BOOL", 0.45, PaperBool}, {"PPRED", 0.35, PaperPpred}};
  }
  return {{"BOOL", 0.45, PaperBool},
          {"PPRED", 0.35, PaperPpred},
          {"NPRED", 0.195, PaperNpred},
          {"COMP", 0.005, PaperComp}};
}

}  // namespace

QueryMix::QueryMix(std::vector<Shape> shapes, size_t pool_size,
                   double zipf_skew, Rng* rng)
    : shapes_(std::move(shapes)) {
  if (pool_size == 0) return;
  std::unordered_set<std::string> seen;
  for (size_t attempts = 0; pool_.size() < pool_size; ++attempts) {
    if (attempts > 100 * pool_size) Fail("query pool: too few distinct queries");
    Query q = Fresh(rng);
    if (seen.insert(q.text).second) pool_.push_back(std::move(q));
  }
  zipf_.emplace(pool_.size(), zipf_skew);
}

Query QueryMix::OfShape(uint8_t shape, Rng* rng) const {
  return Query{shapes_[shape].make(rng), shape};
}

Query QueryMix::Fresh(Rng* rng) const {
  double total = 0;
  for (const Shape& s : shapes_) total += s.weight;
  double x = rng->NextDouble() * total;
  for (size_t i = 0; i + 1 < shapes_.size(); ++i) {
    if (x < shapes_[i].weight) return OfShape(static_cast<uint8_t>(i), rng);
    x -= shapes_[i].weight;
  }
  return OfShape(static_cast<uint8_t>(shapes_.size() - 1), rng);
}

Query QueryMix::Draw(Rng* rng) const {
  return zipf_ ? pool_[zipf_->Sample(rng)] : Fresh(rng);
}

std::vector<Query> QueryMix::Draw(size_t n, Rng* rng) const {
  std::vector<Query> out;
  out.reserve(n);
  if (zipf_) {
    for (size_t i = 0; i < n; ++i) out.push_back(Draw(rng));
    return out;
  }
  // Exact shape counts in random order: a rare, expensive shape (one COMP
  // per 200 requests) would otherwise vary binomially from run to run and
  // move the tail latency with it.
  double total = 0;
  for (const Shape& s : shapes_) total += s.weight;
  std::vector<uint8_t> order;
  double carry = 0;
  for (size_t s = 0; s < shapes_.size(); ++s) {
    carry += static_cast<double>(n) * shapes_[s].weight / total;
    const size_t upto = s + 1 == shapes_.size() ? n : static_cast<size_t>(std::lround(carry));
    order.resize(std::max(order.size(), upto), static_cast<uint8_t>(s));
  }
  for (size_t i = n; i > 1; --i) std::swap(order[i - 1], order[rng->Uniform(i)]);
  for (uint8_t s : order) out.push_back(OfShape(s, rng));
  return out;
}

std::vector<Query> QueryMix::Stratified(size_t n, size_t min_per_shape,
                                        Rng* rng) const {
  double total = 0;
  for (const Shape& s : shapes_) total += s.weight;
  std::vector<Query> out;
  for (size_t s = 0; s < shapes_.size(); ++s) {
    const size_t want = std::max(
        min_per_shape,
        static_cast<size_t>(std::lround(static_cast<double>(n) * shapes_[s].weight / total)));
    std::vector<const Query*> of_shape;
    for (const Query& q : pool_) {
      if (q.shape == s) of_shape.push_back(&q);
    }
    for (size_t i = 0; i < want; ++i) {
      out.push_back(of_shape.empty() ? OfShape(static_cast<uint8_t>(s), rng)
                                     : *of_shape[rng->Uniform(of_shape.size())]);
    }
  }
  return out;
}

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec>* specs = [] {
    auto* v = new std::vector<WorkloadSpec>();
    WorkloadSpec paper;
    paper.name = "paper_mix";
    paper.nodes = 6000;
    paper.workers = 2;
    paper.rate = 800;
    v->push_back(paper);

    WorkloadSpec ranked;
    ranked.name = "ranked_sharded";
    ranked.nodes = 9000;
    ranked.shards = 3;
    ranked.workers = 1;
    ranked.scoring = ScoringKind::kTfIdf;
    ranked.top_k = 10;
    ranked.pair_terms = 16;
    ranked.pair_distance = 2;
    ranked.rate = 1300;
    v->push_back(ranked);

    WorkloadSpec uniform;
    uniform.name = "uniform_mmap";
    uniform.nodes = 24000;
    uniform.workers = 2;
    uniform.mmap = true;
    uniform.rate = 4000;
    v->push_back(uniform);

    WorkloadSpec ingest;
    ingest.name = "ingest_live";
    ingest.in_process = true;
    ingest.base_docs = 6000;
    ingest.workers = 2;
    ingest.rate = 700;
    ingest.add_rate = 300;
    ingest.delete_rate = 1;
    v->push_back(ingest);
    return v;
  }();
  return *specs;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

QueryMix MakeMix(const WorkloadSpec& spec, Rng* rng) {
  if (spec.name == "ranked_sharded") {
    return QueryMix(
        {{"TERM", 0.15, [](Rng* r) { return RankedJoin(r, 1, ""); }},
         {"AND", 0.45, [](Rng* r) { return RankedJoin(r, 2, " AND "); }},
         {"OR", 0.25,
          [](Rng* r) {
            return RankedJoin(r, static_cast<size_t>(r->UniformRange(2, 3)), " OR ");
          }},
         {"PHRASE", 0.075, [](Rng* r) { return RankedPair(r, "odistance(p, q, 0)"); }},
         {"NEAR", 0.075, [](Rng* r) { return RankedPair(r, "distance(p, q, 2)"); }}},
        /*pool_size=*/4000, /*zipf_skew=*/0.9, rng);
  }
  if (spec.name == "uniform_mmap") {
    return QueryMix(
        {{"AND", 0.5,
          [](Rng* r) {
            auto [a, b] = UniformPair(r);
            return Quote(a) + " AND " + Quote(b);
          }},
         {"OR", 0.25,
          [](Rng* r) {
            auto [a, b] = UniformPair(r);
            return Quote(a) + " OR " + Quote(b);
          }},
         {"NEAR", 0.25,
          [](Rng* r) {
            auto [a, b] = UniformPair(r);
            return TwoVariableQuery(a, b, {"distance(p, q, 10)"});
          }}},
        0, 0, rng);
  }
  return QueryMix(PaperShapes(spec.in_process), 0, 0, rng);
}

CorpusGenOptions CorpusOptions(uint32_t nodes, uint64_t seed) {
  CorpusGenOptions opts;
  opts.seed = seed;
  opts.num_nodes = nodes;
  opts.topic_occurrences = 6;
  return opts;
}

std::string RenderNode(const Corpus& corpus, NodeId n) {
  const TokenizedDocument& doc = corpus.doc(n);
  std::string out;
  for (size_t i = 0; i < doc.size(); ++i) {
    if (i > 0) {
      const PositionInfo& prev = doc.positions[i - 1];
      const PositionInfo& cur = doc.positions[i];
      if (cur.paragraph != prev.paragraph) {
        out += ".\n\n";
      } else if (cur.sentence != prev.sentence) {
        out += ". ";
      } else {
        out += ' ';
      }
    }
    out += corpus.token_text(doc.tokens[i]);
  }
  out += '.';
  return out;
}

}  // namespace fts::e2e
