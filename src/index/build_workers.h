// The worker rule and the fork-join helpers the index's parallel passes
// share: IndexBuilder::Build's count, scatter and write passes, and the
// TF-IDF norm pass (ComputeNodeNorms) that builds, merges and snapshots
// run. Internal to src/index.

#ifndef FTS_INDEX_BUILD_WORKERS_H_
#define FTS_INDEX_BUILD_WORKERS_H_

#include <algorithm>
#include <cstddef>
#include <exception>
#include <span>
#include <thread>
#include <vector>

namespace fts {

/// Occurrences each worker must have to itself: a pass over fewer than two
/// such shares runs on the calling thread alone. On an idle 4-core host a
/// second build worker already pays at ~260k occurrences (a 1,500-node
/// build 30 -> 24 ms), but builds that run beside other work — sharded
/// builds started one per shard, ingest seals beside queries — lose by it;
/// 2^19 keeps every pass under ~1M occurrences on one thread.
inline constexpr size_t kOccurrencesPerWorker = size_t{1} << 19;

/// The worker count of a pass over `occurrences` position occurrences:
/// one per kOccurrencesPerWorker, at least one, at most one per core. Set
/// by the work and the cores alone.
inline size_t WorkersFor(size_t occurrences) {
  const size_t cores = std::max(1u, std::thread::hardware_concurrency());
  return std::clamp<size_t>(occurrences / kOccurrencesPerWorker, 1, cores);
}

/// Token chunks a pass over the vocabulary cuts per worker (the build's
/// write pass, the norm pass): with two, a worker that drew a costly chunk
/// (rare tokens cost more per occurrence, each being an entry of its own)
/// is evened out by the others taking more.
inline constexpr size_t kChunksPerWorker = 2;

/// Calls fn(w) for every w in [0, workers): the calling thread runs w = 0,
/// one thread each of the others, all joined before this returns. One
/// worker starts no thread. An exception from any call is rethrown here.
template <typename Fn>
void RunWorkers(size_t workers, const Fn& fn) {
  std::vector<std::exception_ptr> errors(workers);
  const auto run = [&](size_t w) {
    try {
      fn(w);
    } catch (...) {
      errors[w] = std::current_exception();
    }
  };
  {
    std::vector<std::jthread> threads;
    threads.reserve(workers - 1);
    for (size_t w = 1; w < workers; ++w) threads.emplace_back(run, w);
    run(0);
  }
  for (const std::exception_ptr& e : errors) {
    if (e != nullptr) std::rethrow_exception(e);
  }
}

/// Cuts the items [0, prefix.size() - 1) into `parts` contiguous ranges of
/// about equal weight, where prefix[i] is the weight of the items before
/// item i: range p is [bounds[p], bounds[p + 1]).
inline std::vector<size_t> SplitByWeight(std::span<const size_t> prefix, size_t parts) {
  std::vector<size_t> bounds(parts + 1, prefix.size() - 1);
  bounds[0] = 0;
  for (size_t p = 1; p < parts; ++p) {
    const size_t target = prefix.back() / parts * p;
    const auto from = prefix.begin() + static_cast<ptrdiff_t>(bounds[p - 1]);
    const auto at = std::lower_bound(from, prefix.end() - 1, target);
    bounds[p] = static_cast<size_t>(at - prefix.begin());
  }
  return bounds;
}

}  // namespace fts

#endif  // FTS_INDEX_BUILD_WORKERS_H_
