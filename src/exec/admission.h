// Cost-based admission control for the serving layer (docs/serving.md).
//
// A server under load has two bad options for an expensive query: queue it
// (it occupies a worker for a long time, inflating every later query's
// latency) or let back-pressure block the connection. Admission control
// adds the third: estimate the query's evaluation cost *before* it enters
// the SearchService queue, from the same df statistics the adaptive
// planner reads, and shed it with Unavailable when the queue is already
// under pressure. Cheap queries are never shed — under pressure they are
// exactly the ones worth serving — and nothing is shed while the queue is
// shallow, so an idle server accepts arbitrarily expensive queries.
//
// The price is the planner's (PriceQuery, eval/planner.h): leaf document
// frequencies summed across the snapshot's segments, bounded by the
// driver's df when the seek rule would drive a join, scaled by the query's
// LanguageClass. This controller owns only the pressure rule.

#ifndef FTS_EXEC_ADMISSION_H_
#define FTS_EXEC_ADMISSION_H_

#include <cstdint>
#include <string_view>

#include "common/status.h"
#include "index/index_snapshot.h"
#include "lang/classify.h"

namespace fts {

struct AdmissionOptions {
  /// Queue pressure threshold as a fraction of the SearchService queue
  /// capacity: shedding engages only when depth/capacity >= this.
  double pressure_fraction = 0.5;
  /// Cost ceiling applied under pressure; 0 = shed nothing (Assess always
  /// admits, cost still reported, and FtsServer does not call it). The
  /// unit is "posting entries touched", comparable across queries on one
  /// snapshot.
  uint64_t max_cost = 0;
};

/// Verdict for one query against one snapshot generation.
struct AdmissionDecision {
  /// False = shed: the caller answers Unavailable without enqueueing.
  bool admit = true;
  /// Estimated posting entries touched (language-class scaled).
  uint64_t cost = 0;
  LanguageClass language_class = LanguageClass::kComp;
};

class AdmissionController {
 public:
  explicit AdmissionController(AdmissionOptions options)
      : options_(options) {}

  /// Parses and costs `query` against `snapshot`, then decides admission
  /// given the submission queue's current depth and capacity. A parse
  /// failure is returned as-is (the query would fail identically inside
  /// the service; rejecting here keeps it out of the queue). Thread-safe:
  /// the controller is stateless beyond its options.
  StatusOr<AdmissionDecision> Assess(std::string_view query,
                                     const IndexSnapshot& snapshot,
                                     size_t queue_depth,
                                     size_t queue_capacity) const;

  const AdmissionOptions& options() const { return options_; }

 private:
  AdmissionOptions options_;
};

}  // namespace fts

#endif  // FTS_EXEC_ADMISSION_H_
