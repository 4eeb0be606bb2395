#include "eval/engine.h"

namespace fts {

const char* CursorModeToString(CursorMode mode) {
  switch (mode) {
    case CursorMode::kSequential: return "sequential";
    case CursorMode::kSeek: return "seek";
    case CursorMode::kAdaptive: return "adaptive";
  }
  return "?";
}

const char* PairRoutingToString(PairRouting routing) {
  switch (routing) {
    case PairRouting::kAuto: return "auto";
    case PairRouting::kForce: return "force";
    case PairRouting::kOff: return "off";
  }
  return "?";
}

}  // namespace fts
