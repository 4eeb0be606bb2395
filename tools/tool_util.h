// Helpers shared by the serving binaries (fts_server, fts_router): the
// checked port parser and the SIGINT/SIGTERM shutdown wait.

#ifndef FTS_TOOLS_TOOL_UTIL_H_
#define FTS_TOOLS_TOOL_UTIL_H_

#include <pthread.h>

#include <charconv>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string_view>

namespace fts_tools {

/// The TCP port `text` names: decimal digits only, at most 65535.
inline std::optional<uint16_t> ParsePort(std::string_view text) {
  uint16_t port = 0;
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, port);
  if (error != std::errc() || stop != end) return std::nullopt;
  return port;
}

/// ParsePort for a --port flag; a bad value exits with status 2.
inline uint16_t PortFlagOrDie(const char* tool, const char* value) {
  const std::optional<uint16_t> port = ParsePort(value);
  if (!port.has_value()) {
    std::fprintf(stderr, "%s: bad --port (want 0-65535): %s\n", tool, value);
    std::exit(2);
  }
  return *port;
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
