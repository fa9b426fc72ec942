// Standalone FD-monitoring server. Speaks the newline-framed protocol in
// src/server/protocol.h on 127.0.0.1 — try it with nc (see the README
// quickstart):
//
//   fdevolve_serverd --port 7433 --checkpoint state.fdev
//   fdevolve_serverd --port 7433 --checkpoint state.fdev --resume
//
// SIGINT/SIGTERM trigger a clean shutdown: live sessions are drained and,
// when --checkpoint is set, the final state is persisted before exit
// (checkpoint-on-shutdown — the file is always loadable via --resume).
//
// The startup line "cpu: detected ..., kernels ..." names the kernel tier;
// FDEVOLVE_CPU_FEATURES=baseline|avx2 in the environment pins it, and any
// other name exits 2 before the port is bound.
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>

#include "query/kernels.h"
#include "server/server.h"
#include "util/cpu_features.h"

namespace {

// Signal handlers can only touch the async-signal-safe surface;
// Server::RequestShutdown (an atomic store + one pipe write) qualifies.
fdevolve::server::Server* g_server = nullptr;

void HandleSignal(int) {
  if (g_server != nullptr) g_server->RequestShutdown();
}

void Usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--port N] [--checkpoint FILE] [--resume]\n"
            << "  --port N          listen port (default: kernel-assigned)\n"
            << "  --checkpoint FILE persist state here on CHECKPOINT and "
               "shutdown\n"
            << "  --resume          load FILE before serving\n";
}

}  // namespace

int main(int argc, char** argv) {
  // Resolve the kernel tier before any file is read or port is bound: an
  // unknown FDEVOLVE_CPU_FEATURES name is a usage error.
  try {
    fdevolve::query::kernels::Active();
  } catch (const std::invalid_argument& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }
  fdevolve::server::Server::Options opts;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--port" && i + 1 < argc) {
      opts.port = static_cast<uint16_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--checkpoint" && i + 1 < argc) {
      opts.service.checkpoint_path = argv[++i];
    } else if (arg == "--resume") {
      opts.resume = true;
    } else {
      Usage(argv[0]);
      return 2;
    }
  }
  if (opts.resume && opts.service.checkpoint_path.empty()) {
    std::cerr << "--resume requires --checkpoint\n";
    return 2;
  }

  fdevolve::server::Server server(opts);
  std::string error;
  if (!server.Start(&error)) {
    std::cerr << "start failed: " << error << "\n";
    return 1;
  }
  g_server = &server;
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);

  std::cout << "cpu: detected "
            << fdevolve::util::CpuTierName(
                   fdevolve::query::kernels::DetectedTier())
            << ", kernels "
            << fdevolve::util::CpuTierName(
                   fdevolve::query::kernels::SelectedTier())
            << "\n";
  std::cout << "listening on port " << server.port() << std::endl;
  if (!server.Wait(&error)) {
    std::cerr << "shutdown checkpoint failed: " << error << "\n";
    return 1;
  }
  std::cout << "shut down cleanly\n";
  return 0;
}
