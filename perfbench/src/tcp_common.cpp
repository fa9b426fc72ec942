#include "tcp_common.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <variant>

#include "server/service.h"
#include "sql/database.h"
#include "sql/parser.h"
#include "storage/snapshot.h"

namespace fdbench {

namespace server = fdevolve::server;
namespace storage = fdevolve::storage;
namespace fd = fdevolve::fd;

namespace {

[[noreturn]] void Die(const std::string& what) {
  std::cerr << "fdbench: " << what << "\n";
  std::exit(2);
}

void WriteFileOrDie(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out) Die("cannot write " + path);
}

std::unique_ptr<server::Server> StartServer(const std::string& state_path) {
  server::Server::Options opts;
  opts.service.checkpoint_path = state_path;
  opts.resume = true;
  auto srv = std::make_unique<server::Server>(opts);
  std::string error;
  if (!srv->Start(&error)) Die("server start failed: " + error);
  return srv;
}

}  // namespace

TcpEnv StartFromTables(const Config& cfg,
                       std::vector<fdevolve::relation::Relation> tables) {
  TcpEnv env;
  {
    fdevolve::sql::Database db;
    for (auto& rel : tables) db.AddRelation(std::move(rel));
    env.setup_snapshot = storage::SerializeServerState(db, {}, {});
  }
  env.setup_path = cfg.work_dir + "/setup.fdev";
  env.state_path = cfg.work_dir + "/state.fdev";
  WriteFileOrDie(env.setup_path, env.setup_snapshot);
  WriteFileOrDie(env.state_path, env.setup_snapshot);
  env.server = StartServer(env.state_path);
  return env;
}

server::Client::Reply Must(server::Client& client, const std::string& sql) {
  server::Client::Reply reply = client.Request(sql);
  if (!reply.ok) Die("set-up statement failed: " + sql + ": " + reply.error);
  return reply;
}

void ConnectOrDie(server::Client& client, uint16_t port) {
  std::string error;
  if (!client.Connect(port, &error)) Die("connect failed: " + error);
}

void StopServer(TcpEnv& env, server::Client& admin) {
  admin.Request("SHUTDOWN");
  std::string error;
  if (!env.server->Wait(&error)) Die("server shutdown failed: " + error);
  admin.Close();
  env.server.reset();
}

size_t CanonicalHash(const std::string& sql) {
  fdevolve::sql::Statement stmt = fdevolve::sql::ParseStatement(sql);
  std::string canonical =
      std::visit([](const auto& s) { return s.ToString(); }, stmt);
  return std::hash<std::string>{}(canonical);
}

std::unique_ptr<ReplayState> VerifyAndTraceServer(
    const Config& cfg, TcpEnv& env, const std::vector<std::string>& tables,
    const LatencyByStmt& client_us, Tracer& tracer, Result& result) {
  Journals journals;
  double journal_bytes = 0;
  for (const auto& t : tables) {
    journals.push_back({t, env.server->service().Journal(t)});
    for (const auto& line : journals.back().second) {
      journal_bytes += static_cast<double>(line.size());
    }
  }
  const std::string live = env.server->service().SerializeState();

  ReplayTimings timings;
  std::unique_ptr<ReplayState> st;
  try {
    st = ReplayJournals(env.setup_snapshot, journals, tracer, &timings,
                        cfg.drop_journal_line);
  } catch (const std::exception& e) {
    result.Gate("replay_identical", false, e.what());
    return nullptr;
  }
  const bool same = st->Serialize() == live;
  result.Gate("replay_identical", same,
              same ? "" : "replayed state differs from the live server's");
  result.Set("server.journal_bytes", "bytes", journal_bytes);
  size_t checks = 0, drift_events = 0;
  for (const auto& [name, m] : st->exact) {
    checks += m->checks_run();
    drift_events += m->drift_log().size();
  }
  for (const auto& [name, m] : st->sampled) {
    checks += m->checks_run();
    drift_events += m->drift_log().size();
  }
  result.Set("fd.checks", "count", static_cast<double>(checks));
  result.Set("fd.drift_events", "count", static_cast<double>(drift_events));
  result.Set("relation.compactions", "count",
             static_cast<double>(timings.compact_ms.size()));
  if (!cfg.trace) return st;

  result.Timing("sql.parse", "us", timings.parse_us);
  result.Timing("sql.insert", "us", timings.insert_us);
  result.Timing("sql.delete", "us", timings.delete_us);
  result.Timing("sql.update", "us", timings.update_us);
  result.Set("sql.rows_scanned_per_match", "ratio",
             timings.rows_changed
                 ? static_cast<double>(timings.rows_examined) /
                       static_cast<double>(timings.rows_changed)
                 : 0);
  result.Timing("relation.compact", "ms", timings.compact_ms);
  double compact_max = 0;
  for (double v : timings.compact_ms) compact_max = std::max(compact_max, v);
  result.Set("relation.compact_max_ms", "ms", compact_max);
  result.Timing("fd.poll", "us", timings.poll_us);
  result.Timing("fd.sampled_poll", "us", timings.sampled_poll_us);

  // server.execute: the same journals through a fresh Service, one
  // session, no contention and no socket.
  server::Service fresh(server::Service::Options{env.setup_path, 1, true});
  std::string error;
  if (!fresh.Resume(&error)) {
    result.Gate("execute_replay_identical", false, error);
    return st;
  }
  server::Service::SessionId session = fresh.OpenSession(nullptr);
  std::vector<double> execute_us;
  std::unordered_map<size_t, std::vector<double>> exec_by_stmt;
  bool all_ok = true;
  for (const auto& [table, lines] : journals) {
    for (const auto& line : lines) {
      int64_t id = tracer.Begin("server.execute");
      Clock::time_point t0 = Clock::now();
      server::Service::Result r = fresh.ExecuteLine(session, line);
      double us = MicrosBetween(t0, Clock::now());
      tracer.End(id);
      all_ok &= r.reply.rfind("OK", 0) == 0;
      execute_us.push_back(us);
      exec_by_stmt[std::hash<std::string>{}(line)].push_back(us);
    }
  }
  result.Gate("execute_replay_identical",
              all_ok && fresh.SerializeState() == live);
  result.Timing("server.execute", "us", execute_us);

  // server.wait: what the client saw beyond the uncontended execution of
  // the same statement (lock wait + socket + scheduling).
  std::vector<double> wait_us;
  for (const auto& [hash, seen] : client_us) {
    auto it = exec_by_stmt.find(hash);
    if (it == exec_by_stmt.end()) continue;
    for (size_t i = 0; i < seen.size() && i < it->second.size(); ++i) {
      wait_us.push_back(seen[i] - it->second[i]);
    }
  }
  result.Timing("server.wait", "us", wait_us);

  // storage: checkpoint and load of the replayed state.
  std::vector<storage::ServerMonitorState> monitors;
  std::vector<storage::ServerSampledMonitorState> samples;
  for (const auto& [name, m] : st->exact) monitors.push_back({name, m->State()});
  for (const auto& [name, m] : st->sampled) samples.push_back({name, m->State()});
  const std::string path = cfg.work_dir + "/replay.fdev";
  {
    Scope s(tracer, "storage.checkpoint");
    Clock::time_point t0 = Clock::now();
    if (!storage::SaveServerSnapshot(st->db, monitors, path, &error, samples)) {
      result.Gate("storage_roundtrip", false, error);
    }
    result.Set("storage.checkpoint_ms", "ms", MillisSince(t0));
  }
  {
    Scope s(tracer, "storage.load");
    fdevolve::sql::Database loaded;
    std::vector<storage::ServerMonitorState> m2;
    std::vector<storage::ServerSampledMonitorState> s2;
    Clock::time_point t0 = Clock::now();
    bool ok = storage::LoadServerSnapshot(path, &loaded, &m2, &error, &s2);
    result.Set("storage.load_ms", "ms", MillisSince(t0));
    result.Gate("storage_roundtrip", ok, error);
  }
  size_t live_rows = 0;
  for (const auto& t : tables) live_rows += st->db.Get(t).live_count();
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  result.Set("storage.snapshot_bytes_per_live_row", "bytes",
             live_rows ? static_cast<double>(f.tellg()) /
                             static_cast<double>(live_rows)
                       : 0);

  // fd.restore: rebuild every monitor from its captured state.
  {
    Scope s(tracer, "fd.restore");
    Clock::time_point t0 = Clock::now();
    for (auto& m : monitors) {
      fd::SchemaMonitor restored(&st->db.GetMutable(m.table), m.state, 1);
      (void)restored;
    }
    for (auto& m : samples) {
      fd::SampledSchemaMonitor restored(&st->db.GetMutable(m.table), m.state);
      (void)restored;
    }
    result.Set("fd.restore_ms", "ms", MillisSince(t0));
  }
  return st;
}

void MeasureRecovery(TcpEnv& env, const std::string& count_table, int cycles,
                     Result& result) {
  const std::string before = env.server->service().SerializeState();
  std::vector<double> seconds;
  bool same = true;
  for (int c = 0; c < cycles; ++c) {
    server::Client admin;
    ConnectOrDie(admin, env.port());
    Clock::time_point t0 = Clock::now();
    server::Client::Reply ck = admin.Request("CHECKPOINT");
    result.CountOps(1, ck.ok ? 0 : 1);
    StopServer(env, admin);
    env.server = StartServer(env.state_path);
    server::Client probe;
    ConnectOrDie(probe, env.port());
    server::Client::Reply count =
        probe.Request("SELECT COUNT(*) FROM " + count_table);
    seconds.push_back(SecondsSince(t0));
    result.CountOps(1, count.ok ? 0 : 1);
    same &= env.server->service().SerializeState() == before;
  }
  result.Gate("resume_identical", same);
  result.Median("recovery_s", "s", seconds);
}

}  // namespace fdbench
