// Helpers shared by the command-line tools (fts_server, fts_router,
// fts_build_index): the checked numeric flag parser and the SIGINT/SIGTERM
// shutdown wait.

#ifndef FTS_TOOLS_TOOL_UTIL_H_
#define FTS_TOOLS_TOOL_UTIL_H_

#include <pthread.h>

#include <charconv>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <string_view>

namespace fts_tools {

/// `text` in full as a T — decimal digits for an integer T, a decimal
/// number for a floating-point one — within [lo, hi], which default to all
/// of T. A value T cannot hold (a sign on an unsigned T, too many digits)
/// or trailing text is nullopt, never a wrapped or truncated value.
template <typename T>
std::optional<T> ParseNumber(std::string_view text,
                             T lo = std::numeric_limits<T>::lowest(),
                             T hi = std::numeric_limits<T>::max()) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  // Written so that a NaN fails the range check.
  if (error != std::errc() || stop != end || !(value >= lo && value <= hi)) {
    return std::nullopt;
  }
  return value;
}

/// ParseNumber for the value of a numeric flag, stored in `*out` and
/// ranged to its type unless [lo, hi] narrows it; a bad value exits with
/// status 2.
template <typename T>
void NumberFlagOrDie(const char* tool, const char* flag, const char* value,
                     T* out, T lo = std::numeric_limits<T>::lowest(),
                     T hi = std::numeric_limits<T>::max()) {
  const std::optional<T> parsed = ParseNumber<T>(value, lo, hi);
  if (!parsed.has_value()) {
    std::fprintf(stderr, "%s: bad %s: %s\n", tool, flag, value);
    std::exit(2);
  }
  *out = *parsed;
}

inline sigset_t ShutdownSignals() {
  sigset_t set;
  sigemptyset(&set);
  sigaddset(&set, SIGINT);
  sigaddset(&set, SIGTERM);
  return set;
}

/// Masks SIGINT/SIGTERM in the calling (main) thread. Must run before any
/// server thread is spawned so every thread inherits the mask and
/// WaitForShutdownSignal is the only consumer — otherwise a
/// process-directed signal can land on a worker thread and kill the
/// process without a clean Stop().
inline void MaskShutdownSignals() {
  const sigset_t set = ShutdownSignals();
  pthread_sigmask(SIG_BLOCK, &set, nullptr);
}

/// Blocks until SIGINT or SIGTERM arrives (consumed synchronously).
inline void WaitForShutdownSignal(const char* tool) {
  const sigset_t set = ShutdownSignals();
  int sig = 0;
  sigwait(&set, &sig);
  std::printf("%s: caught %s, shutting down\n", tool, strsignal(sig));
}

}  // namespace fts_tools

#endif  // FTS_TOOLS_TOOL_UTIL_H_
