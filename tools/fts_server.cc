// fts_server: serves one index file over the fts wire protocol plus the
// HTTP /metrics and /healthz endpoints (docs/serving.md). One process per
// shard; put a fts_router in front for a document-partitioned deployment.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "index/index_io.h"
#include "net/server.h"
#include "tool_util.h"

namespace {

void Usage() {
  std::fprintf(
      stderr,
      "usage: fts_server --index PATH [--port N] [--name STR]\n"
      "                  [--scoring none|tfidf|prob] [--mode adaptive|seq|seek]\n"
      "                  [--workers N] [--listen-all] [--mmap]\n"
      "                  [--admission-max-cost N] [--admission-pressure F]\n"
      "  --port N                TCP port (default 7070; 0 = ephemeral)\n"
      "  --scoring KIND          ranked scoring model (default none)\n"
      "  --mode MODE             cursor mode (default adaptive)\n"
      "  --workers N             worker threads (default: hardware)\n"
      "  --listen-all            bind 0.0.0.0 instead of loopback\n"
      "  --mmap                  map the index file instead of reading it into\n"
      "                          the heap (blocks are checked on first use\n"
      "                          either way)\n"
      "  --admission-max-cost N  shed queries costlier than N under pressure\n"
      "  --admission-pressure F  queue fraction in [0, 1] that arms shedding\n"
      "                          (default 0.5)\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string index_path;
  fts::LoadOptions load;
  fts::net::FtsServer::Options options;
  options.port = 7070;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) Usage();
      return argv[++i];
    };
    if (arg == "--index") {
      index_path = next();
    } else if (arg == "--port") {
      fts_tools::NumberFlagOrDie("fts_server", "--port", next(), &options.port);
    } else if (arg == "--name") {
      options.name = next();
    } else if (arg == "--scoring") {
      const std::string kind = next();
      if (kind == "none") {
        options.service.scoring = fts::ScoringKind::kNone;
      } else if (kind == "tfidf") {
        options.service.scoring = fts::ScoringKind::kTfIdf;
      } else if (kind == "prob") {
        options.service.scoring = fts::ScoringKind::kProbabilistic;
      } else {
        Usage();
      }
    } else if (arg == "--mode") {
      const std::string mode = next();
      if (mode == "adaptive") {
        options.service.mode = fts::CursorMode::kAdaptive;
      } else if (mode == "seq") {
        options.service.mode = fts::CursorMode::kSequential;
      } else if (mode == "seek") {
        options.service.mode = fts::CursorMode::kSeek;
      } else {
        Usage();
      }
    } else if (arg == "--workers") {
      fts_tools::NumberFlagOrDie("fts_server", "--workers", next(),
                                 &options.service.num_workers);
    } else if (arg == "--listen-all") {
      options.loopback_only = false;
    } else if (arg == "--mmap") {
      load.mode = fts::LoadOptions::Mode::kMmap;
    } else if (arg == "--admission-max-cost") {
      fts_tools::NumberFlagOrDie("fts_server", "--admission-max-cost", next(),
                                 &options.admission.max_cost);
    } else if (arg == "--admission-pressure") {
      fts_tools::NumberFlagOrDie("fts_server", "--admission-pressure", next(),
                                 &options.admission.pressure_fraction, 0.0,
                                 1.0);
    } else {
      Usage();
    }
  }
  if (index_path.empty()) Usage();

  auto index = std::make_shared<fts::InvertedIndex>();
  fts::Status s = fts::LoadIndexFromFile(index_path, index.get(), load);
  if (!s.ok()) {
    std::fprintf(stderr, "fts_server: %s\n", s.ToString().c_str());
    return 1;
  }

  fts_tools::MaskShutdownSignals();
  fts::net::FtsServer server(index, options);
  s = server.Start();
  if (!s.ok()) {
    std::fprintf(stderr, "fts_server: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("fts_server: \"%s\" serving %s on port %u (%zu workers)\n",
              options.name.c_str(), index_path.c_str(), server.port(),
              server.service().num_workers());
  std::fflush(stdout);

  fts_tools::WaitForShutdownSignal("fts_server");
  server.Stop();
  return 0;
}
