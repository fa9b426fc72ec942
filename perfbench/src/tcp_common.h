// Plumbing shared by the two TCP workloads: set-up through a server-state
// snapshot, the in-process server, the post-run identity gates, recovery
// timing, and the traced replay of the server-side layers.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "relation/relation.h"
#include "replay.h"
#include "report.h"
#include "server/client.h"
#include "server/server.h"
#include "workloads.h"

namespace fdbench {

/// A running in-process server plus the snapshot it was loaded from.
struct TcpEnv {
  std::unique_ptr<fdevolve::server::Server> server;
  std::string setup_snapshot;  ///< server-state bytes the run started from
  std::string setup_path;      ///< those bytes on disk (fresh replays)
  std::string state_path;      ///< the server's CHECKPOINT path
  uint16_t port() const { return server->port(); }
};

/// Bulk load: serializes `tables` as a monitor-free server-state snapshot,
/// writes it to `<work_dir>/setup.fdev` and `<work_dir>/state.fdev`, and
/// starts a server (Service::Options defaults: journal on) that resumes
/// from it. Exits the process on failure: nothing can be measured.
TcpEnv StartFromTables(const Config& cfg,
                       std::vector<fdevolve::relation::Relation> tables);

/// Sends `sql` and exits the process unless it succeeds (set-up only).
fdevolve::server::Client::Reply Must(fdevolve::server::Client& client,
                                     const std::string& sql);

/// Connects or exits.
void ConnectOrDie(fdevolve::server::Client& client, uint16_t port);

/// SHUTDOWN through `admin` and wait for the server to drain.
void StopServer(TcpEnv& env, fdevolve::server::Client& admin);

/// Client-observed round trips keyed by the canonical statement text's
/// hash (the traced run pairs them with uncontended execute times).
using LatencyByStmt = std::unordered_map<size_t, std::vector<double>>;

/// Hash of the canonical (journal) form of `sql`.
size_t CanonicalHash(const std::string& sql);

/// Post-run work common to both TCP workloads, after the measured window:
///   * fetches every table's journal (tables in FD-declaration order) and
///     the live serialized state, replays the journals, and gates the
///     replay on byte identity;
///   * traced runs: times every replayed call, replays the journals again
///     through a fresh Service::ExecuteLine for server.execute/.wait, and
///     times the storage round trip and monitor restore.
/// Returns the replayed state (the final tables, for the search layers).
std::unique_ptr<ReplayState> VerifyAndTraceServer(
    const Config& cfg, TcpEnv& env, const std::vector<std::string>& tables,
    const LatencyByStmt& client_us, Tracer& tracer, Result& result);

/// CHECKPOINT + SHUTDOWN, then a fresh server resuming from the
/// checkpoint until its first SELECT COUNT(*) answers; `cycles` times.
/// Gates the resumed state on byte identity with the pre-shutdown state.
/// Leaves env.server running (the last resumed one).
void MeasureRecovery(TcpEnv& env, const std::string& count_table, int cycles,
                     Result& result);

}  // namespace fdbench
