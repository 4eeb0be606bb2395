#include "exec/admission.h"

#include "eval/planner.h"
#include "lang/parser.h"

namespace fts {

StatusOr<AdmissionDecision> AdmissionController::Assess(
    std::string_view query, const IndexSnapshot& snapshot, size_t queue_depth,
    size_t queue_capacity) const {
  FTS_ASSIGN_OR_RETURN(LangExprPtr parsed,
                       ParseQuery(query, SurfaceLanguage::kComp));
  const LangExprPtr normalized = NormalizeSurface(parsed);

  AdmissionDecision decision;
  decision.language_class = ClassifyQuery(normalized);
  decision.cost = PriceQuery(normalized, decision.language_class, snapshot);

  if (options_.max_cost == 0 || queue_capacity == 0) {
    return decision;
  }
  const double pressure =
      static_cast<double>(queue_depth) / static_cast<double>(queue_capacity);
  decision.admit =
      pressure < options_.pressure_fraction || decision.cost <= options_.max_cost;
  return decision;
}

}  // namespace fts
