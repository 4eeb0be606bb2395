// The four workloads of the end-to-end benchmark: their corpora, query
// mixes and serving configurations. bench/e2e/README.md says why each
// one exists. The open-loop rates sit at a quarter of each workload's
// closed-loop throughput on a 4-core x86-64 host (a seventh for the
// cheap uniform_mmap queries, a sixth for ingest_live, whose writer shares
// the cores): at half, the host's own speed swings pushed the queues into
// their steep region and tail latency stopped repeating.

#ifndef FTS_BENCH_E2E_WORKLOADS_H_
#define FTS_BENCH_E2E_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "eval/engine.h"
#include "harness.h"
#include "text/corpus.h"
#include "workload/corpus_gen.h"

namespace fts::e2e {

/// A named query shape with its share of the traffic.
struct Shape {
  std::string name;
  double weight = 0;
  std::function<std::string(Rng*)> make;
};

/// A weighted mix of query shapes. With a pool, requests are drawn from a
/// fixed set of distinct queries under Zipf popularity (web-search-like
/// repetition); without one, every request is freshly generated.
class QueryMix {
 public:
  QueryMix(std::vector<Shape> shapes, size_t pool_size, double zipf_skew,
           Rng* rng);

  Query Draw(Rng* rng) const;
  std::vector<Query> Draw(size_t n, Rng* rng) const;

  /// `n` requests in the mix's proportions, but at least `min_per_shape`
  /// of every shape: the correctness gate's sample.
  std::vector<Query> Stratified(size_t n, size_t min_per_shape, Rng* rng) const;

  const std::vector<Shape>& shapes() const { return shapes_; }

 private:
  Query Fresh(Rng* rng) const;
  Query OfShape(uint8_t shape, Rng* rng) const;

  std::vector<Shape> shapes_;
  std::vector<Query> pool_;
  std::optional<ZipfSampler> zipf_;
};

struct WorkloadSpec {
  std::string name;
  /// Served by IngestService + SearchService in this process rather than
  /// by fts_server processes.
  bool in_process = false;
  /// Context nodes of the whole corpus (split evenly over the shards).
  uint32_t nodes = 6000;
  /// fts_server processes; more than one puts fts_router in front.
  uint32_t shards = 1;
  /// fts_server --workers, or SearchService workers in process.
  uint32_t workers = 2;
  /// Passed to fts_server --scoring under its ScoringKindToString name.
  ScoringKind scoring = ScoringKind::kNone;
  bool mmap = false;
  uint32_t top_k = 0;
  /// Pair lists built into every shard (0 = none).
  size_t pair_terms = 0;
  uint32_t pair_distance = 0;
  /// Open-loop request rate, requests/s.
  double rate = 0;
  /// ingest_live only: writer Add and Delete rates, operations/s.
  double add_rate = 0;
  double delete_rate = 0;
  /// ingest_live only: documents ingested and compacted during set-up.
  uint32_t base_docs = 0;
};

/// The four workloads, in run order.
const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(const std::string& name);

/// The query mix of `spec`, built from `rng`.
QueryMix MakeMix(const WorkloadSpec& spec, Rng* rng);

/// The paper-shaped corpus options of every workload (the micro
/// benchmarks' BenchCorpusOptions(nodes, 6)) under `seed`.
CorpusGenOptions CorpusOptions(uint32_t nodes, uint64_t seed);

/// Node `n` of `corpus` as text: tokens joined by spaces, ". " at sentence
/// breaks and ".\n\n" at paragraph breaks, so the Tokenizer maps the text
/// back to the same tokens and positions.
std::string RenderNode(const Corpus& corpus, NodeId n);

}  // namespace fts::e2e

#endif  // FTS_BENCH_E2E_WORKLOADS_H_
