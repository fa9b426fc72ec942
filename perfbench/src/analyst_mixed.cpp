// analyst_mixed: analyst reads beside a steady write stream.
//
// One process, three connections: one open-loop writer sending INSERT
// batches on a fixed schedule (each timed from when it was due) and two
// closed-loop readers alternating the paper's measure query
// SELECT COUNT(DISTINCT l_partkey, l_suppkey) with EXPLAIN REPAIR on the
// same FD. One lineitem table at SF 0.1 (~600k rows x 16 columns, larger
// than the CPU caches). The O(n) reads hold the table's shared lock; the
// writer needs it exclusively.
#include <iostream>
#include <thread>

#include "fd/fd.h"
#include "sql/engine.h"
#include "sql/parser.h"
#include "tcp_common.h"
#include "tpch_stream.h"
#include "workloads.h"

namespace fdbench {

namespace server = fdevolve::server;
namespace fd = fdevolve::fd;
namespace sql = fdevolve::sql;

namespace {

constexpr const char* kCountSql =
    "SELECT COUNT(DISTINCT l_partkey, l_suppkey) FROM lineitem";
constexpr const char* kExplainSql =
    "EXPLAIN REPAIR l_partkey -> l_suppkey ON lineitem";

struct Sizes {
  StreamShape shape;
  double write_rate;  ///< INSERT statements per second (open loop)
  int batch_orders;   ///< orders per INSERT (~4 lines each)
};

Sizes SizesFor(const Config& cfg) {
  if (cfg.tiny) return {StreamShape::ForScale(0.002, 20), 200, 2};
  return {StreamShape::ForScale(0.1, 100), 100, 2};
}

struct WriterOut {
  std::vector<double> latency_us;  ///< reply time - due time
  std::vector<double> lag_ms;      ///< send time - due time
  uint64_t attempted = 0, failed = 0;
  int64_t inserted = 0;
  std::string first_error;
  LatencyByStmt by_stmt;
};

void RunWriter(uint16_t port, AppendStream stream, double rate,
               Clock::time_point start, Clock::time_point deadline, bool trace,
               WriterOut* out) {
  server::Client client;
  std::string error;
  if (!client.Connect(port, &error)) {
    ++out->attempted;
    ++out->failed;
    out->first_error = error;
    return;
  }
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / rate));
  for (uint64_t i = 0;; ++i) {
    Clock::time_point due = start + period * static_cast<int64_t>(i);
    if (due >= deadline) break;
    std::string stmt = stream.Next();
    std::this_thread::sleep_until(due);
    Clock::time_point sent = Clock::now();
    server::Client::Reply reply = client.Request(stmt);
    Clock::time_point done = Clock::now();
    ++out->attempted;
    out->lag_ms.push_back(MicrosBetween(due, sent) / 1000.0);
    if (!reply.ok) {
      ++out->failed;
      if (out->first_error.empty()) out->first_error = reply.error;
      if (!client.connected()) break;
      continue;
    }
    out->inserted += static_cast<int64_t>(reply.value);
    out->latency_us.push_back(MicrosBetween(due, done));
    if (trace) {
      out->by_stmt[CanonicalHash(stmt)].push_back(out->latency_us.back());
    }
  }
}

struct ReaderOut {
  std::vector<double> read_us;   ///< every COUNT / EXPLAIN round trip
  std::vector<double> round_us;  ///< one COUNT + EXPLAIN pair
  uint64_t attempted = 0, failed = 0;
  bool counts_monotone = true;   ///< inserts only: the count never drops
  bool plans_nonempty = true;
  std::string first_error;
};

void RunReader(uint16_t port, Clock::time_point deadline, ReaderOut* out) {
  server::Client client;
  std::string error;
  if (!client.Connect(port, &error)) {
    ++out->attempted;
    ++out->failed;
    out->first_error = error;
    return;
  }
  uint64_t last_count = 0;
  while (Clock::now() < deadline) {
    Clock::time_point t0 = Clock::now();
    server::Client::Reply count = client.Request(kCountSql);
    Clock::time_point t1 = Clock::now();
    server::Client::Reply plan = client.Request(kExplainSql);
    Clock::time_point t2 = Clock::now();
    out->attempted += 2;
    bool ok = true;
    for (const auto* r : {&count, &plan}) {
      if (!r->ok) {
        ok = false;
        ++out->failed;
        if (out->first_error.empty()) out->first_error = r->error;
      }
    }
    if (count.ok) {
      out->read_us.push_back(MicrosBetween(t0, t1));
      out->counts_monotone &= count.value >= last_count;
      last_count = count.value;
    }
    if (plan.ok) {
      out->read_us.push_back(MicrosBetween(t1, t2));
      out->plans_nonempty &= !plan.plan.empty();
    }
    if (ok) out->round_us.push_back(MicrosBetween(t0, t2));
    if (!client.connected()) break;
  }
}

}  // namespace

void RunAnalystMixed(const Config& cfg, Result& result) {
  const Sizes sz = SizesFor(cfg);
  result.Meta("shape.orders_per_day", sz.shape.orders_per_day);
  result.Meta("shape.days", sz.shape.days);
  result.Meta("write_rate_per_s", sz.write_rate);
  result.Meta("write_batch_orders", sz.batch_orders);
  result.Meta("loop", "open-loop writer at write_rate_per_s + 2 closed-loop "
                      "readers");

  std::vector<double> setup_s;
  TcpEnv env;
  int64_t initial_rows = 0;
  for (int r = 0; r < cfg.setup_repeats; ++r) {
    if (env.server) {
      server::Client admin;
      ConnectOrDie(admin, env.port());
      StopServer(env, admin);
    }
    Clock::time_point t0 = Clock::now();
    InitialData data =
        MakeInitialData(sz.shape, cfg.seed, /*with_orders=*/false);
    initial_rows = static_cast<int64_t>(data.lineitem.tuple_count());
    std::vector<fdevolve::relation::Relation> tables;
    tables.push_back(std::move(data.lineitem));
    env = StartFromTables(cfg, std::move(tables));
    server::Client admin;
    ConnectOrDie(admin, env.port());
    Must(admin, "DECLARE FD l_partkey -> l_suppkey ON lineitem EVERY 1");
    setup_s.push_back(SecondsSince(t0));
  }
  result.Median("setup_s", "s", setup_s);
  result.Meta("rows.lineitem", static_cast<double>(initial_rows));

  WriterOut wout;
  ReaderOut rout[2];
  Clock::time_point start = Clock::now();
  Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(cfg.seconds));
  {
    std::vector<std::thread> threads;
    threads.emplace_back(
        RunWriter, env.port(),
        AppendStream(sz.shape, static_cast<int64_t>(sz.shape.orders()),
                     sz.shape.days, cfg.seed, sz.batch_orders),
        sz.write_rate, start, deadline, cfg.trace, &wout);
    for (auto& r : rout) {
      threads.emplace_back(RunReader, env.port(), deadline, &r);
    }
    for (auto& t : threads) t.join();
  }
  const double window_s = SecondsSince(start);
  result.Set("peak_rss_mb", "MB", PeakRssMb());

  uint64_t attempted = wout.attempted, failed = wout.failed;
  std::vector<double> read_us, round_us;
  bool monotone = true, plans = true;
  for (auto& r : rout) {
    attempted += r.attempted;
    failed += r.failed;
    read_us.insert(read_us.end(), r.read_us.begin(), r.read_us.end());
    round_us.insert(round_us.end(), r.round_us.begin(), r.round_us.end());
    monotone &= r.counts_monotone;
    plans &= r.plans_nonempty;
    if (!r.first_error.empty()) {
      std::cerr << "fdbench: read failed: " << r.first_error << "\n";
    }
  }
  if (!wout.first_error.empty()) {
    std::cerr << "fdbench: write failed: " << wout.first_error << "\n";
  }
  result.CountOps(attempted, failed);
  result.Gate("distinct_counts_monotone", monotone);
  result.Gate("plans_nonempty", plans);
  result.Timing("write", "us", wout.latency_us);
  result.Timing("read", "us", read_us);
  result.Timing("loadgen.lag", "ms", wout.lag_ms);
  result.Set("reads_per_s", "1/s", static_cast<double>(read_us.size()) / window_s);
  result.Set("error_rate", "ratio",
             attempted ? static_cast<double>(failed) / attempted : 0);
  Summary rounds = Summarize(round_us);
  result.Set("ops_per_s", "1/s", static_cast<double>(rounds.n) / window_s);
  result.Set("op_p50_us", "us", rounds.median);

  server::Client admin;
  ConnectOrDie(admin, env.port());
  auto count = admin.Request("SELECT COUNT(*) FROM lineitem");
  result.CountOps(1, count.ok ? 0 : 1);
  const int64_t want = initial_rows + wout.inserted;
  result.Gate("count_matches_tally",
              count.ok && static_cast<int64_t>(count.value) == want,
              std::to_string(count.value) + " vs " + std::to_string(want));

  Tracer tracer(cfg.trace);
  std::unique_ptr<ReplayState> final_state = VerifyAndTraceServer(
      cfg, env, {"lineitem"}, wout.by_stmt, tracer, result);
  StopServer(env, admin);

  if (cfg.trace && final_state) {
    // Re-issue the analyst's reads against the final state, one layer down.
    const sql::Database& db = final_state->db;
    const auto query = std::get<sql::CountQuery>(sql::ParseStatement(kCountSql));
    const auto explain =
        std::get<sql::ExplainRepairStatement>(sql::ParseStatement(kExplainSql));
    const int reps = cfg.tiny ? 3 : 30;
    std::vector<double> count_ms, explain_ms;
    for (int i = 0; i < reps; ++i) {
      {
        Scope s(tracer, "sql.count_distinct");
        Clock::time_point t0 = Clock::now();
        (void)sql::Execute(query, db);
        count_ms.push_back(MillisSince(t0));
      }
      {
        Scope s(tracer, "sql.explain");
        Clock::time_point t0 = Clock::now();
        (void)sql::Execute(explain, db);
        explain_ms.push_back(MillisSince(t0));
      }
    }
    result.Timing("sql.count_distinct", "ms", count_ms);
    result.Timing("sql.explain", "ms", explain_ms);

    const fdevolve::relation::Relation& lineitem = db.Get("lineitem");
    fd::RepairOptions opts;
    opts.mode = fd::SearchMode::kAllRepairs;
    opts.max_added_attrs = 2;
    std::vector<SearchItem> items = {
        {"lineitem", &lineitem,
         fd::Fd::Parse("l_partkey -> l_suppkey", lineitem.schema()), opts,
         false}};
    MeasureSearchLayers(items, items, cfg.threads, tracer, result);
    tracer.WriteJsonLines(cfg.work_dir + "/spans.jsonl");
  }
}

}  // namespace fdbench
