#include "harness.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>

#include "net/wire.h"

namespace fts::e2e {

void Fail(const std::string& message) { throw BenchError(message); }

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  const size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  const size_t i = std::min(values.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(values.begin(), values.begin() + i, values.end());
  return values[i];
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

// --- TempDir ----------------------------------------------------------------

TempDir::TempDir(const std::filesystem::path& parent) {
  std::filesystem::create_directories(parent);
  std::string pattern = (parent / "run-XXXXXX").string();
  if (mkdtemp(pattern.data()) == nullptr) {
    Fail("mkdtemp under " + parent.string() + ": " + std::strerror(errno));
  }
  path_ = pattern;
}

TempDir::~TempDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

// --- ChildProcess -----------------------------------------------------------

ChildProcess::ChildProcess(const std::vector<std::string>& argv)
    : name_(std::filesystem::path(argv.at(0)).filename().string()) {
  int fds[2];
  if (pipe2(fds, O_CLOEXEC) != 0) Fail("pipe: " + std::string(std::strerror(errno)));
  std::vector<char*> cargv;
  for (const std::string& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
  cargv.push_back(nullptr);
  const pid_t parent = getpid();
  pid_ = fork();
  if (pid_ < 0) {
    close(fds[0]);
    close(fds[1]);
    Fail("fork: " + std::string(std::strerror(errno)));
  }
  if (pid_ == 0) {
    // Only async-signal-safe calls between fork and exec.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    dup2(fds[1], STDOUT_FILENO);
    execv(cargv[0], cargv.data());
    _exit(127);
  }
  close(fds[1]);
  stdout_fd_ = fds[0];
}

uint16_t ChildProcess::WaitForPort(std::chrono::milliseconds timeout) {
  const int64_t deadline = NowNs() + timeout.count() * 1'000'000;
  while (true) {
    const size_t at = stdout_.find(" on port ");
    if (at != std::string::npos) {
      const size_t end = stdout_.find_first_not_of("0123456789", at + 9);
      if (end != std::string::npos && end > at + 9) {
        return static_cast<uint16_t>(
            std::strtoul(stdout_.c_str() + at + 9, nullptr, 10));
      }
    }
    const int64_t left_ms = (deadline - NowNs()) / 1'000'000;
    if (left_ms <= 0) Fail(name_ + " did not report its port in time");
    pollfd pfd{stdout_fd_, POLLIN, 0};
    if (poll(&pfd, 1, static_cast<int>(left_ms)) < 0 && errno != EINTR) {
      Fail("poll on " + name_ + " stdout: " + std::strerror(errno));
    }
    if (pfd.revents == 0) continue;
    char buf[4096];
    const ssize_t n = read(stdout_fd_, buf, sizeof(buf));
    if (n <= 0) Fail(name_ + " exited before reporting its port");
    stdout_.append(buf, static_cast<size_t>(n));
  }
}

namespace {

double ReadVmHwmMiB(const std::string& status_path) {
  std::ifstream in(status_path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  Fail("no VmHWM in " + status_path);
}

}  // namespace

double ChildProcess::PeakRssMiB() const {
  return ReadVmHwmMiB("/proc/" + std::to_string(pid_) + "/status");
}

double SelfPeakRssMiB() { return ReadVmHwmMiB("/proc/self/status"); }

void ResetSelfPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  if (!clear) Fail("cannot reset the peak RSS through /proc/self/clear_refs");
}

void ChildProcess::Stop() {
  if (pid_ > 0) {
    kill(pid_, SIGTERM);
    int status = 0;
    const int64_t deadline = NowNs() + 5'000'000'000;
    pid_t r = 0;
    while ((r = waitpid(pid_, &status, WNOHANG)) == 0 && NowNs() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    if (r == 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, &status, 0);
    }
    pid_ = -1;
  }
  if (stdout_fd_ >= 0) {
    close(stdout_fd_);
    stdout_fd_ = -1;
  }
}

// --- LoadGenerator -------------------------------------------------------------

LoadGenerator::LoadGenerator(const std::vector<uint16_t>& ports, int per_port,
                       uint32_t top_k)
    : top_k_(top_k) {
  for (uint16_t port : ports) {
    for (int i = 0; i < per_port; ++i) {
      conns_.emplace_back();
      conns_.back().port = port;
    }
  }
  for (Conn& c : conns_) Connect(&c);
}

void LoadGenerator::Connect(Conn* c) {
  StatusOr<net::Socket> sock =
      net::ConnectTcp("127.0.0.1", c->port, std::chrono::milliseconds(5000));
  if (!sock.ok()) {
    Fail("connect to port " + std::to_string(c->port) + ": " +
         sock.status().ToString());
  }
  c->sock = std::move(sock).value();
  c->in.clear();
  c->in_off = 0;
}

void LoadGenerator::Send(size_t conn, uint32_t query, const std::string& text,
                      int64_t sched_ns) {
  net::SearchRequest req;
  req.request_id = ++next_id_;
  req.top_k = top_k_;
  req.query = text;
  const std::string frame = net::EncodeSearchRequest(req);
  Conn& c = conns_[conn];
  InFlight f;
  f.id = req.request_id;
  f.reply.query = query;
  f.reply.sched_ns = sched_ns;
  f.reply.sent_ns = NowNs();
  if (!net::WriteAll(c.sock, frame).ok()) {
    f.reply.done_ns = NowNs();
    done_.push_back(f.reply);
    return;
  }
  c.inflight.push_back(std::move(f));
}

size_t LoadGenerator::InFlightCount() const {
  size_t n = 0;
  for (const Conn& c : conns_) n += c.inflight.size();
  return n;
}

void LoadGenerator::FailConnection(size_t conn) {
  Conn& c = conns_[conn];
  const int64_t now = NowNs();
  for (InFlight& f : c.inflight) {
    f.reply.done_ns = now;
    done_.push_back(f.reply);
  }
  c.inflight.clear();
  c.sock.Close();
  Connect(&c);
}

void LoadGenerator::ReadReplies(size_t conn) {
  Conn& c = conns_[conn];
  char buf[1 << 16];
  while (true) {
    const ssize_t n = recv(c.sock.fd(), buf, sizeof(buf), MSG_DONTWAIT);
    if (n > 0) {
      c.in.append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    FailConnection(conn);  // peer closed or socket error
    return;
  }
  const int64_t now = NowNs();
  while (c.in.size() - c.in_off >= net::kFrameHeaderBytes) {
    uint32_t len = 0;
    std::memcpy(&len, c.in.data() + c.in_off, sizeof(len));  // little-endian host
    if (c.in.size() - c.in_off < net::kFrameHeaderBytes + len) break;
    const std::string_view payload(c.in.data() + c.in_off + net::kFrameHeaderBytes,
                                   len);
    c.in_off += net::kFrameHeaderBytes + len;
    if (c.inflight.empty()) {
      FailConnection(conn);
      return;
    }
    net::SearchResponse resp;
    const Status s = net::DecodeSearchResponse(payload, &resp);
    InFlight f = std::move(c.inflight.front());
    c.inflight.pop_front();
    // Both servers answer one connection in request order; anything else
    // is a protocol failure.
    if (!s.ok() || resp.request_id != f.id) {
      c.inflight.push_front(std::move(f));
      FailConnection(conn);
      return;
    }
    f.reply.done_ns = now;
    f.reply.ok = resp.status.ok();
    f.reply.results = static_cast<uint32_t>(resp.nodes.size());
    f.reply.counters = resp.counters;
    done_.push_back(f.reply);
  }
  if (c.in_off == c.in.size()) {
    c.in.clear();
    c.in_off = 0;
  } else if (c.in_off > (1u << 20)) {
    c.in.erase(0, c.in_off);
    c.in_off = 0;
  }
}

void LoadGenerator::PollUntil(int64_t until_ns) {
  std::vector<pollfd> fds(conns_.size());
  for (size_t i = 0; i < conns_.size(); ++i) {
    fds[i] = pollfd{conns_[i].sock.fd(), POLLIN, 0};
  }
  const int64_t wait = std::max<int64_t>(0, until_ns - NowNs());
  const timespec ts{static_cast<time_t>(wait / 1'000'000'000),
                    static_cast<long>(wait % 1'000'000'000)};
  if (ppoll(fds.data(), fds.size(), &ts, nullptr) < 0 && errno != EINTR) {
    Fail("ppoll: " + std::string(std::strerror(errno)));
  }
  for (size_t i = 0; i < conns_.size(); ++i) {
    if (fds[i].revents != 0) ReadReplies(i);
  }
  const int64_t now = NowNs();
  for (size_t i = 0; i < conns_.size(); ++i) {
    if (!conns_[i].inflight.empty() &&
        now - conns_[i].inflight.front().reply.sent_ns > kTimeoutNs) {
      FailConnection(i);
    }
  }
}

std::vector<Reply> LoadGenerator::OpenLoop(const std::vector<Query>& queries,
                                           double rate) {
  done_.clear();
  done_.reserve(queries.size());
  const double period_ns = 1e9 / rate;
  const int64_t start = NowNs() + 1'000'000;
  const auto due = [&](size_t i) {
    return start + static_cast<int64_t>(static_cast<double>(i) * period_ns);
  };
  size_t next = 0;
  while (next < queries.size() || InFlightCount() > 0) {
    const int64_t now = NowNs();
    while (next < queries.size() && due(next) <= now) {
      Send(next % conns_.size(), static_cast<uint32_t>(next), queries[next].text,
           due(next));
      ++next;
    }
    PollUntil(next < queries.size() ? due(next) : now + 10'000'000);
  }
  return std::move(done_);
}

std::vector<Reply> LoadGenerator::ClosedLoop(const std::vector<Query>& queries,
                                             const std::function<uint32_t()>& next,
                                             int depth, double seconds) {
  done_.clear();
  const int64_t end = NowNs() + static_cast<int64_t>(seconds * 1e9);
  while (true) {
    // Tops every connection up to `depth`, a reconnected one included.
    if (NowNs() < end) {
      for (size_t c = 0; c < conns_.size(); ++c) {
        while (conns_[c].inflight.size() < static_cast<size_t>(depth)) {
          const uint32_t q = next();
          Send(c, q, queries[q].text, NowNs());
        }
      }
    }
    if (InFlightCount() == 0) break;
    PollUntil(NowNs() + 10'000'000);
  }
  return std::move(done_);
}

Reply LoadGenerator::RoundTrip(size_t conn, const std::string& query) {
  done_.clear();
  Send(conn, 0, query, NowNs());
  while (InFlightCount() > 0) PollUntil(NowNs() + 10'000'000);
  return done_.at(0);
}

std::vector<Reply> LoadGenerator::FanOut(const std::string& query) {
  done_.clear();
  const int64_t now = NowNs();
  for (size_t c = 0; c < conns_.size(); ++c) {
    Send(c, static_cast<uint32_t>(c), query, now);
  }
  while (InFlightCount() > 0) PollUntil(NowNs() + 10'000'000);
  std::vector<Reply> out = std::move(done_);
  std::sort(out.begin(), out.end(),
            [](const Reply& a, const Reply& b) { return a.query < b.query; });
  return out;
}

}  // namespace fts::e2e
