// ingest_churn: §1's continuous validation under write churn.
//
// Closed loop, one process, three connections to an in-process server:
// two writer sessions and one SUBSCRIBE DRIFT session. TPC-H-shaped
// lineitem/orders at SF 0.01 (~60k/15k rows, fits in cache) are bulk
// loaded through a server-state snapshot; the writers then stream
// multi-row INSERTs of new orders, day-window retention DELETEs, supplier
// reassignment UPDATEs, and (writer 0) planted witness insert/delete
// pairs that flip the key-shaped FD every ~20th statement overall.
#include <atomic>
#include <iostream>
#include <thread>

#include "fd/fd.h"
#include "tcp_common.h"
#include "tpch_stream.h"
#include "workloads.h"

namespace fdbench {

namespace server = fdevolve::server;
namespace fd = fdevolve::fd;

namespace {

constexpr int kFlipEvery = 10;  // per writer-0 statement; ~20 overall

struct Sizes {
  StreamShape shape;
  int batch_orders;
  int sample;
};

Sizes SizesFor(const Config& cfg) {
  if (cfg.tiny) return {StreamShape::ForScale(0.001, 10), 5, 256};
  return {StreamShape::ForScale(0.01, 100), 10, 4096};
}

/// The FDs, each table's contiguous (the catalog's FD registry order is
/// global, and the replay walks tables in this order).
std::vector<std::string> Declarations(const Config& cfg, int sample) {
  return {
      "DECLARE FD l_partkey -> l_suppkey ON lineitem EVERY 1",
      "DECLARE FD l_orderkey, l_linenumber -> l_partkey ON lineitem EVERY 1",
      "DECLARE FD l_partkey -> l_suppkey ON lineitem SAMPLE " +
          std::to_string(sample) + " SEED " + std::to_string(cfg.seed),
      "DECLARE FD o_custkey -> o_orderstatus ON orders EVERY 1",
  };
}

struct Live {
  TcpEnv env;
  DayIndex by_day;
  server::Client admin;
  server::Client subscriber;
  int64_t lineitem_rows = 0;
  int64_t orders_rows = 0;
};

std::unique_ptr<Live> SetUp(const Config& cfg, const Sizes& sz) {
  auto live = std::make_unique<Live>();
  InitialData data = MakeInitialData(sz.shape, cfg.seed, /*with_orders=*/true);
  live->by_day = std::move(data.by_day);
  live->lineitem_rows = static_cast<int64_t>(data.lineitem.tuple_count());
  live->orders_rows = static_cast<int64_t>(data.orders.tuple_count());
  std::vector<fdevolve::relation::Relation> tables;
  tables.push_back(std::move(data.lineitem));
  tables.push_back(std::move(data.orders));
  live->env = StartFromTables(cfg, std::move(tables));
  ConnectOrDie(live->admin, live->env.port());
  for (const auto& d : Declarations(cfg, sz.sample)) Must(live->admin, d);
  ConnectOrDie(live->subscriber, live->env.port());
  Must(live->subscriber, "SUBSCRIBE DRIFT ON lineitem");
  return live;
}

struct WriterOut {
  std::vector<double> latency_us;
  uint64_t attempted = 0, failed = 0;
  int64_t lineitem_delta = 0, orders_delta = 0;
  std::vector<Clock::time_point> flip_sent;  ///< committed flips, in order
  std::vector<bool> flip_violates;
  bool witness_deletes_exact = true;  ///< each recover DELETE hit one row
  std::string first_error;
  LatencyByStmt by_stmt;
};

void RunWriter(uint16_t port, ChurnStream stream, Clock::time_point deadline,
               bool trace, WriterOut* out) {
  server::Client client;
  std::string error;
  if (!client.Connect(port, &error)) {
    ++out->attempted;
    ++out->failed;
    out->first_error = error;
    return;
  }
  while (Clock::now() < deadline) {
    Stmt s = stream.Next();
    Clock::time_point t0 = Clock::now();
    server::Client::Reply reply = client.Request(s.sql);
    double us = MicrosBetween(t0, Clock::now());
    ++out->attempted;
    if (!reply.ok) {
      ++out->failed;
      if (out->first_error.empty()) out->first_error = reply.error;
      if (!client.connected()) break;
      continue;
    }
    out->latency_us.push_back(us);
    int64_t delta = 0;
    switch (s.kind) {
      case Stmt::Kind::kInsert:
      case Stmt::Kind::kFlipViolate:
        delta = static_cast<int64_t>(reply.value);
        break;
      case Stmt::Kind::kDelete:
      case Stmt::Kind::kFlipRecover:
        delta = -static_cast<int64_t>(reply.value);
        break;
      case Stmt::Kind::kUpdate:
        break;
    }
    (s.table == "orders" ? out->orders_delta : out->lineitem_delta) += delta;
    if (s.kind == Stmt::Kind::kFlipViolate ||
        s.kind == Stmt::Kind::kFlipRecover) {
      out->flip_sent.push_back(t0);
      out->flip_violates.push_back(s.kind == Stmt::Kind::kFlipViolate);
      if (s.kind == Stmt::Kind::kFlipRecover && reply.value != 1) {
        out->witness_deletes_exact = false;
      }
    }
    if (trace) out->by_stmt[CanonicalHash(s.sql)].push_back(us);
  }
}

struct Pushed {
  Clock::time_point at;
  std::string line;
};

}  // namespace

void RunIngestChurn(const Config& cfg, Result& result) {
  const Sizes sz = SizesFor(cfg);
  result.Meta("shape.orders_per_day", sz.shape.orders_per_day);
  result.Meta("shape.days", sz.shape.days);
  result.Meta("write_batch_orders", sz.batch_orders);
  result.Meta("sample_capacity", sz.sample);
  result.Meta("loop", "closed: 2 writer sessions + 1 SUBSCRIBE DRIFT session");

  std::vector<double> setup_s;
  std::unique_ptr<Live> live;
  for (int r = 0; r < cfg.setup_repeats; ++r) {
    if (live) StopServer(live->env, live->admin);
    live.reset();
    Clock::time_point t0 = Clock::now();
    live = SetUp(cfg, sz);
    setup_s.push_back(SecondsSince(t0));
  }
  result.Median("setup_s", "s", setup_s);
  result.Meta("rows.lineitem", static_cast<double>(live->lineitem_rows));
  result.Meta("rows.orders", static_cast<double>(live->orders_rows));

  // The key-shaped FD's exact DRIFT lines, as the subscriber sees them.
  fdevolve::relation::Schema li = LineitemSchema();
  const std::string key_fd =
      "fd=" +
      fd::Fd::Parse("l_orderkey, l_linenumber -> l_partkey", li).ToString(li);

  std::atomic<bool> stop_sub{false};
  std::atomic<size_t> key_seen{0};
  std::vector<Pushed> pushed;  // written by the subscriber thread only
  std::thread sub([&] {
    while (!stop_sub.load()) {
      auto line = live->subscriber.PollDrift(20);
      if (!line) continue;
      pushed.push_back({Clock::now(), *line});
      if (line->find(key_fd) != std::string::npos) ++key_seen;
    }
  });

  WriterOut out[2];
  Clock::time_point start = Clock::now();
  Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(cfg.seconds));
  {
    std::vector<std::thread> writers;
    for (int w = 0; w < 2; ++w) {
      writers.emplace_back(RunWriter, live->env.port(),
                           ChurnStream(sz.shape, live->by_day, w, cfg.seed,
                                       sz.batch_orders, kFlipEvery, w == 0),
                           deadline, cfg.trace, &out[w]);
    }
    for (auto& t : writers) t.join();
  }
  const double window_s = SecondsSince(start);
  result.Set("peak_rss_mb", "MB", PeakRssMb());

  // Let the last pushes land (bounded), then stop the subscriber.
  const size_t flips = out[0].flip_sent.size();
  Clock::time_point drain = Clock::now();
  while (key_seen.load() < flips && SecondsSince(drain) < 5.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop_sub.store(true);
  sub.join();

  // drift_notify: flip statement sent -> its DRIFT line received.
  std::vector<double> notify_us;
  bool drift_ok = true;
  size_t k = 0;
  for (const auto& p : pushed) {
    if (p.line.find(key_fd) == std::string::npos) continue;
    if (k >= flips) {
      drift_ok = false;
      break;
    }
    const bool violated = p.line.find("kind=violated") != std::string::npos;
    drift_ok &= violated == out[0].flip_violates[k];
    notify_us.push_back(MicrosBetween(out[0].flip_sent[k], p.at));
    ++k;
  }
  drift_ok &= k == flips && out[0].witness_deletes_exact;
  result.Gate("drift_lines_match_planted_flips", drift_ok,
              std::to_string(k) + " key-FD DRIFT lines for " +
                  std::to_string(flips) + " planted flips");
  result.Set("server.drift_pushes", "count", static_cast<double>(pushed.size()));
  result.Timing("drift_notify", "us", notify_us);

  // Writes: latency, throughput, failures.
  std::vector<double> write_us;
  uint64_t attempted = 0, failed = 0;
  for (auto& o : out) {
    write_us.insert(write_us.end(), o.latency_us.begin(), o.latency_us.end());
    attempted += o.attempted;
    failed += o.failed;
    if (!o.first_error.empty()) {
      std::cerr << "fdbench: write failed: " << o.first_error << "\n";
    }
  }
  result.CountOps(attempted, failed);
  result.Timing("write", "us", write_us);
  result.Set("write_stmts_per_s", "1/s",
             static_cast<double>(write_us.size()) / window_s);
  result.Set("error_rate", "ratio",
             attempted ? static_cast<double>(failed) / attempted : 0);
  result.Set("ops_per_s", "1/s", result.Get("write_stmts_per_s"));
  result.Set("op_p50_us", "us", Summarize(write_us).median);

  // Final counts against the client-side tally of live rows.
  const int64_t want_li =
      live->lineitem_rows + out[0].lineitem_delta + out[1].lineitem_delta;
  const int64_t want_or =
      live->orders_rows + out[0].orders_delta + out[1].orders_delta;
  auto li_count = live->admin.Request("SELECT COUNT(*) FROM lineitem");
  auto or_count = live->admin.Request("SELECT COUNT(*) FROM orders");
  result.CountOps(2, (li_count.ok ? 0 : 1) + (or_count.ok ? 0 : 1));
  result.Gate("count_matches_tally",
              li_count.ok && or_count.ok &&
                  static_cast<int64_t>(li_count.value) == want_li &&
                  static_cast<int64_t>(or_count.value) == want_or,
              "lineitem " + std::to_string(li_count.value) + " vs " +
                  std::to_string(want_li) + ", orders " +
                  std::to_string(or_count.value) + " vs " +
                  std::to_string(want_or));

  LatencyByStmt by_stmt;
  for (auto& o : out) {
    for (auto& [h, v] : o.by_stmt) {
      auto& dst = by_stmt[h];
      dst.insert(dst.end(), v.begin(), v.end());
    }
  }
  Tracer tracer(cfg.trace);
  std::unique_ptr<ReplayState> final_state = VerifyAndTraceServer(
      cfg, live->env, {"lineitem", "orders"}, by_stmt, tracer, result);

  MeasureRecovery(live->env, "lineitem", cfg.tiny ? 1 : 3, result);
  server::Client admin;
  ConnectOrDie(admin, live->env.port());
  live->admin.Close();
  live->subscriber.Close();
  StopServer(live->env, admin);

  if (cfg.trace && final_state) {
    // The designer's follow-up on the drifted tables: repair search on
    // the final live rows (compacted: the search is tombstone-unaware).
    fdevolve::relation::Relation lineitem =
        final_state->db.Get("lineitem").CompactedCopy();
    fdevolve::relation::Relation orders =
        final_state->db.Get("orders").CompactedCopy();
    fd::RepairOptions opts;
    opts.mode = fd::SearchMode::kAllRepairs;
    opts.max_added_attrs = 2;
    std::vector<SearchItem> items = {
        {"lineitem", &lineitem,
         fd::Fd::Parse("l_partkey -> l_suppkey", lineitem.schema()), opts,
         false},
        {"orders", &orders,
         fd::Fd::Parse("o_custkey -> o_orderstatus", orders.schema()), opts,
         false},
    };
    MeasureSearchLayers(items, items, cfg.threads, tracer, result);
    tracer.WriteJsonLines(cfg.work_dir + "/spans.jsonl");
  }
}

}  // namespace fdbench
