// fts_router: scatter-gather front for document-partitioned fts_server
// shards (docs/serving.md). Connects to every shard, assigns doc-id bases
// by prefix sum, exchanges global scoring statistics so shard scores are
// bit-identical to a single-index run, then serves the same
// wire protocol (and HTTP /metrics, /healthz) a single fts_server speaks.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include "net/shard_router.h"
#include "tool_util.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: fts_router --shard HOST:PORT [--shard HOST:PORT ...]\n"
               "                  [--port N] [--name STR] [--listen-all]\n"
               "  --shard HOST:PORT     a shard server, in doc-id-range order\n"
               "  --port N              TCP port (default 7080; 0 = ephemeral)\n"
               "  --listen-all          bind 0.0.0.0 instead of loopback\n");
  std::exit(2);
}

fts::net::ShardAddress ParseShard(const char* value) {
  const char* colon = std::strrchr(value, ':');
  if (colon == nullptr || colon == value || colon[1] == '\0') {
    std::fprintf(stderr, "fts_router: bad --shard (want HOST:PORT): %s\n", value);
    std::exit(2);
  }
  fts::net::ShardAddress addr;
  addr.host.assign(value, colon - value);
  const std::optional<uint16_t> port =
      fts_tools::ParseNumber<uint16_t>(colon + 1);
  if (!port.has_value() || *port == 0) {
    std::fprintf(stderr, "fts_router: bad --shard port: %s\n", value);
    std::exit(2);
  }
  addr.port = *port;
  return addr;
}

}  // namespace

int main(int argc, char** argv) {
  fts::net::ShardRouter::Options router_options;
  fts::net::RouterServer::Options server_options;
  server_options.port = 7080;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) Usage();
      return argv[++i];
    };
    if (arg == "--shard") {
      router_options.shards.push_back(ParseShard(next()));
    } else if (arg == "--port") {
      fts_tools::NumberFlagOrDie("fts_router", "--port", next(),
                                 &server_options.port);
    } else if (arg == "--name") {
      server_options.name = next();
    } else if (arg == "--listen-all") {
      server_options.loopback_only = false;
    } else {
      Usage();
    }
  }
  if (router_options.shards.empty()) Usage();

  fts_tools::MaskShutdownSignals();
  fts::net::ShardRouter router(router_options);
  fts::Status s = router.Connect();
  if (!s.ok()) {
    std::fprintf(stderr, "fts_router: %s\n", s.ToString().c_str());
    return 1;
  }
  for (const fts::net::ShardHealth& shard : router.health()) {
    std::printf("fts_router: shard \"%s\" %s:%u — %llu nodes, base %llu\n",
                shard.name.c_str(), shard.address.host.c_str(),
                shard.address.port,
                static_cast<unsigned long long>(shard.num_nodes),
                static_cast<unsigned long long>(shard.base));
  }
  s = router.ExchangeGlobalStats();
  if (!s.ok()) {
    std::fprintf(stderr, "fts_router: stats exchange: %s\n",
                 s.ToString().c_str());
    return 1;
  }
  std::printf("fts_router: global statistics pushed to %zu shards\n",
              router.num_shards());

  fts::net::RouterServer server(&router, server_options);
  s = server.Start();
  if (!s.ok()) {
    std::fprintf(stderr, "fts_router: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("fts_router: \"%s\" routing %zu shards (%llu nodes) on port %u\n",
              server_options.name.c_str(), router.num_shards(),
              static_cast<unsigned long long>(router.total_nodes()),
              server.port());
  std::fflush(stdout);

  fts_tools::WaitForShutdownSignal("fts_router");
  server.Stop();
  return 0;
}
