// Plumbing of the end-to-end benchmark: clocks and percentiles, the run's
// temporary directory, server child processes, and a single-threaded
// load generator that speaks the wire protocol over raw sockets.
//
// The load generator exists beside FtsClient for two reasons, both within a
// budget of four load-side threads and four connections:
//  - The router replay asks three shards and the router over four
//    connections per query. FtsClient spends one reader thread per
//    connection, five threads with the caller's; the generator polls all
//    four from the calling thread.
//  - FtsClient hands each reply from its reader thread to the caller
//    through a future, one more thread wake-up per request. Driving the
//    ranked_sharded open loop (1,300/s, two connections) with two
//    FtsClients whose futures the caller polls, as the in-process
//    ingest_live loop does, read p50 4.7% and p90 2.8% higher than the
//    generator: medians of twelve alternating 2 s pairs on a 4-vCPU
//    x86-64 VM, FtsClient higher in nine pairs.
// The generator stamps each reply as it decodes it. FtsClient still serves
// the correctness gate, the first request of a set-up and the traced
// replay of the net layer.

#ifndef FTS_BENCH_E2E_HARNESS_H_
#define FTS_BENCH_E2E_HARNESS_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "net/socket.h"

namespace fts::e2e {

/// Steady-clock nanoseconds.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

/// Any benchmark failure. main() catches it after every guard (child
/// processes, temporary directory) has unwound, then exits non-zero.
class BenchError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

[[noreturn]] void Fail(const std::string& message);

/// Nearest-rank percentile (p in [0, 1]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double p);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}
double Mean(const std::vector<double>& values);

/// A directory created under `parent` and removed with everything in it
/// when the guard is destroyed.
class TempDir {
 public:
  explicit TempDir(const std::filesystem::path& parent);
  ~TempDir();
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
};

/// One server process (fts_server or fts_router) with its stdout on a
/// pipe. The child is killed by the kernel if this process dies first
/// (PR_SET_PDEATHSIG), and the destructor stops and reaps it on every
/// other exit path.
class ChildProcess {
 public:
  explicit ChildProcess(const std::vector<std::string>& argv);
  ~ChildProcess() { Stop(); }
  ChildProcess(const ChildProcess&) = delete;
  ChildProcess& operator=(const ChildProcess&) = delete;

  /// Reads stdout until a line announces "on port N" (both server
  /// binaries print one, flushed, once they accept connections).
  uint16_t WaitForPort(std::chrono::milliseconds timeout);

  /// Peak resident set size (VmHWM) in MiB.
  double PeakRssMiB() const;

  /// SIGTERM, up to 5 s of grace, then SIGKILL; always reaps. Idempotent.
  void Stop();

 private:
  std::string name_;
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  std::string stdout_;
};

/// VmHWM of this process in MiB.
double SelfPeakRssMiB();

/// Resets this process's VmHWM to its current resident size.
void ResetSelfPeakRss();

/// One request of a workload: its text and the generator shape it came
/// from (an index into QueryMix::shapes()).
struct Query {
  std::string text;
  uint8_t shape = 0;
};

/// Client-side wait bound: a request unanswered after this long counts as
/// failed, and every failed request counts as this latency.
inline constexpr int64_t kTimeoutNs = 2'000'000'000;

/// The outcome of one request.
struct Reply {
  /// Index into the query list the phase was given.
  uint32_t query = 0;
  int64_t sched_ns = 0;
  int64_t sent_ns = 0;
  int64_t done_ns = 0;
  bool ok = false;
  uint32_t results = 0;
  EvalCounters counters;

  /// Latency from the scheduled send time; failures count as the timeout.
  double LatencyMs() const {
    return static_cast<double>(ok ? done_ns - sched_ns : kTimeoutNs) * 1e-6;
  }
};

/// Drives search requests over raw connections from the calling thread.
class LoadGenerator {
 public:
  /// Opens `per_port` connections to each port on 127.0.0.1. Every search
  /// asks for `top_k` results (0 = full results).
  LoadGenerator(const std::vector<uint16_t>& ports, int per_port, uint32_t top_k);

  /// Open loop: request i carries queries[i], is due at start + i / rate
  /// and goes out on connection i % connections. Returns once every
  /// request has been answered or has timed out.
  std::vector<Reply> OpenLoop(const std::vector<Query>& queries, double rate);

  /// Closed loop: keeps `depth` requests in flight on every connection
  /// for `seconds`, drawing the next query index from `next`. Replies
  /// still in flight at the end are awaited and returned too.
  std::vector<Reply> ClosedLoop(const std::vector<Query>& queries,
                                const std::function<uint32_t()>& next,
                                int depth, double seconds);

  /// Sends `query` on every connection at once and waits for all the
  /// replies: a router's fan-out, replayed from outside. Reply i belongs
  /// to connection i.
  std::vector<Reply> FanOut(const std::string& query);

  /// Sends `query` on connection `conn` alone and waits for the reply.
  Reply RoundTrip(size_t conn, const std::string& query);

 private:
  struct InFlight {
    uint64_t id = 0;
    Reply reply;
  };
  struct Conn {
    uint16_t port = 0;
    net::Socket sock;
    std::string in;
    size_t in_off = 0;
    std::deque<InFlight> inflight;
  };

  void Connect(Conn* c);
  void Send(size_t conn, uint32_t query, const std::string& text,
            int64_t sched_ns);
  /// Waits until a reply arrives or `until_ns` passes, moving finished
  /// requests to done_.
  void PollUntil(int64_t until_ns);
  void ReadReplies(size_t conn);
  void FailConnection(size_t conn);
  size_t InFlightCount() const;

  uint32_t top_k_ = 0;
  uint64_t next_id_ = 0;
  std::vector<Conn> conns_;
  std::vector<Reply> done_;
};

}  // namespace fts::e2e

#endif  // FTS_BENCH_E2E_HARNESS_H_
