// Snapshot load vs CSV re-ingest: the restart/recovery path.
//
// The monitoring loop is meant to run forever; what a restart pays is the
// time to get the encoded relation back. CSV re-ingest re-parses every
// cell and re-builds every dictionary hash-by-hash; the FDEV1 snapshot
// deserializes the encoded layer directly (dict + codes), so load cost is
// essentially a sequential read. This bench measures both on the same
// relation at 100k..1M tuples (FDEVOLVE_BENCH_FAST=1 shrinks to one 25k
// round for CI) and prints the speedup; the acceptance bar is >= 10x.
//
// It is also the persistence bit-identity gate for CI: after every load it
// verifies (a) the encoded layer matches the written relation exactly —
// schema, dictionary order, codes, null counts — (b) distinct counts,
// group ids, and measure doubles computed on the loaded relation equal the
// original's bit for bit, and (c) a monitor checkpointed mid-stream
// through server-state bytes resumes into the identical remaining check
// sequence. Any divergence exits non-zero.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "fd/measures.h"
#include "fd/schema_monitor.h"
#include "query/distinct.h"
#include "relation/csv.h"
#include "relation/relation.h"
#include "sql/database.h"
#include "storage/snapshot.h"
#include "util/rng.h"
#include "util/table_printer.h"
#include "util/timer.h"

namespace {

using namespace fdevolve;
using relation::AttrSet;
using relation::DataType;
using relation::Relation;
using relation::Schema;
using relation::Value;

int g_failures = 0;

void Check(bool ok, const std::string& what) {
  if (!ok) {
    std::cerr << "IDENTITY DIVERGENCE: " << what << "\n";
    ++g_failures;
  }
}

Schema BenchSchema() {
  return Schema({{"zip", DataType::kInt64},
                 {"city", DataType::kString},
                 {"state", DataType::kString},
                 {"amount", DataType::kDouble},
                 {"flag", DataType::kInt64}});
}

/// A relation with CSV-expensive content: two string columns with
/// mid-sized dictionaries (every cell pays parsing + dictionary hashing on
/// re-ingest), a double column, and some NULLs.
Relation MakeRelation(size_t n, uint64_t seed) {
  util::Rng rng(seed);
  Relation rel("bench", BenchSchema());
  const size_t cities = 2000;
  const size_t states = 50;
  for (size_t t = 0; t < n; ++t) {
    const auto city = static_cast<int64_t>(rng.Below(cities));
    std::vector<Value> row;
    row.emplace_back(static_cast<int64_t>(rng.Below(30000)));
    row.emplace_back("city_" + std::to_string(city));
    row.emplace_back("ST" + std::to_string(city % states));
    if (rng.Chance(0.02)) {
      row.emplace_back(Value::Null());
    } else {
      row.emplace_back(static_cast<double>(rng.Below(100000)) * 0.01);
    }
    row.emplace_back(static_cast<int64_t>(rng.Below(3)));
    rel.AppendRow(row);
  }
  return rel;
}

void CheckEncodedIdentity(const Relation& a, const Relation& b) {
  Check(a.tuple_count() == b.tuple_count(), "tuple count");
  Check(a.attr_count() == b.attr_count(), "attr count");
  for (int i = 0; i < a.attr_count(); ++i) {
    const auto& ca = a.column(i);
    const auto& cb = b.column(i);
    Check(ca.codes() == cb.codes(),
          "codes of column " + a.schema().attr(i).name);
    Check(ca.dict_size() == cb.dict_size(),
          "dict size of column " + a.schema().attr(i).name);
    Check(ca.null_count() == cb.null_count(),
          "null count of column " + a.schema().attr(i).name);
    for (size_t c = 0; c < ca.dict_size() && c < cb.dict_size(); ++c) {
      if (!(ca.DictValue(static_cast<uint32_t>(c)) ==
            cb.DictValue(static_cast<uint32_t>(c)))) {
        Check(false, "dict value " + std::to_string(c) + " of column " +
                         a.schema().attr(i).name);
        break;
      }
    }
  }
}

void CheckQueryIdentity(const Relation& a, const Relation& b) {
  query::DistinctEvaluator ea(a);
  query::DistinctEvaluator eb(b);
  const AttrSet sets[] = {AttrSet::Of({0}), AttrSet::Of({1, 2}),
                          AttrSet::Of({0, 1, 3}), AttrSet::Of({0, 1, 2, 4})};
  for (const auto& s : sets) {
    Check(ea.Count(s) == eb.Count(s), "distinct count");
    const auto& ga = ea.GroupFor(s);
    const auto& gb = eb.GroupFor(s);
    Check(ga.group_count == gb.group_count, "group count");
    Check(ga.ids == gb.ids, "group ids");
  }
  const fd::Fd fds[] = {fd::Fd(AttrSet::Of({0}), AttrSet::Of({2})),
                        fd::Fd(AttrSet::Of({1}), AttrSet::Of({2}))};
  for (const auto& f : fds) {
    fd::FdMeasures ma = fd::ComputeMeasures(ea, f);
    fd::FdMeasures mb = fd::ComputeMeasures(eb, f);
    // Doubles compared exactly: same integer counts through the same
    // arithmetic must give the same bits.
    Check(ma.confidence == mb.confidence && ma.goodness == mb.goodness &&
              ma.exact == mb.exact,
          "measure doubles");
  }
}

/// Mid-stream checkpoint/resume differential on a small monitored stream.
void CheckResumeIdentity(uint64_t seed) {
  util::Rng rng(seed);
  const Schema schema({{"a", DataType::kInt64}, {"b", DataType::kInt64}});
  auto row = [&]() {
    std::vector<Value> r;
    const auto a = static_cast<int64_t>(rng.Below(40));
    r.emplace_back(a);
    r.emplace_back(rng.Chance(0.05) ? static_cast<int64_t>(rng.Below(80))
                                    : a * 3);
    return r;
  };
  Relation seed_rel("mon", schema);
  for (int t = 0; t < 50; ++t) seed_rel.AppendRow(row());
  std::vector<std::vector<Value>> stream;
  for (int t = 0; t < 2000; ++t) stream.push_back(row());

  const std::vector<fd::Fd> fds = {fd::Fd(AttrSet::Of({0}), AttrSet::Of({1}))};
  sql::Database first_db;
  first_db.AddRelation(seed_rel);
  Relation& first_rel = first_db.GetMutable("mon");
  fd::SchemaMonitor uninterrupted(&seed_rel, fds, 25);
  fd::SchemaMonitor first_leg(&first_rel, fds, 25);
  auto feed = [](Relation& rel, fd::SchemaMonitor& mon,
                 const std::vector<Value>& r) {
    rel.AppendRow(r);
    mon.Poll();
  };
  const size_t stop_at = stream.size() / 2;
  for (const auto& r : stream) feed(seed_rel, uninterrupted, r);
  for (size_t t = 0; t < stop_at; ++t) feed(first_rel, first_leg, stream[t]);

  // Round trip through the server-state payload — the format the server
  // and the CLI checkpoint monitors in.
  sql::Database db;
  std::vector<storage::ServerMonitorState> monitors;
  std::string error;
  const bool ok = storage::DeserializeServerState(
      storage::SerializeServerState(first_db, {{"mon", first_leg.State()}}),
      &db, &monitors, &error);
  Check(ok && monitors.size() == 1, "checkpoint round trip: " + error);
  if (!ok || monitors.size() != 1) return;
  Relation& resumed_rel = db.GetMutable("mon");
  fd::SchemaMonitor resumed(&resumed_rel, std::move(monitors[0].state));
  for (size_t t = stop_at; t < stream.size(); ++t) {
    feed(resumed_rel, resumed, stream[t]);
  }

  Check(resumed.checks_run() == uninterrupted.checks_run(), "checks_run");
  Check(resumed.drift_log().size() == uninterrupted.drift_log().size(),
        "drift log length");
  for (size_t i = 0; i < resumed.drift_log().size() &&
                     i < uninterrupted.drift_log().size();
       ++i) {
    Check(resumed.drift_log()[i].tuple_count ==
                  uninterrupted.drift_log()[i].tuple_count &&
              resumed.drift_log()[i].measures.confidence ==
                  uninterrupted.drift_log()[i].measures.confidence,
          "drift event " + std::to_string(i));
  }
  for (size_t i = 0; i < resumed.fds().size(); ++i) {
    Check(resumed.fds()[i].measures.confidence ==
                  uninterrupted.fds()[i].measures.confidence &&
              resumed.fds()[i].violated == uninterrupted.fds()[i].violated,
          "final FD state " + std::to_string(i));
  }
}

}  // namespace

int main() {
  const bool fast = bench::FastMode();
  const std::vector<size_t> sizes =
      fast ? std::vector<size_t>{25'000}
           : std::vector<size_t>{100'000, 300'000, 1'000'000};

  const auto dir = std::filesystem::temp_directory_path() / "fdevolve_bench";
  std::filesystem::create_directories(dir);
  const std::string csv_path = (dir / "bench.csv").string();
  const std::string snap_path = (dir / "bench.fdsnap").string();

  util::TablePrinter table("snapshot load vs CSV re-ingest (best of 3, warm files)");
  table.SetHeader({"tuples", "csv re-ingest ms", "snapshot load ms",
                   "speedup", "csv bytes", "snapshot bytes"});

  char buf[64];
  double min_speedup = 1e300;
  for (size_t n : sizes) {
    Relation rel = MakeRelation(n, 0xbe5c + n);

    std::string err;
    if (!relation::WriteCsvFile(rel, csv_path, &err) ||
        !storage::SaveRelationSnapshot(rel, snap_path, &err)) {
      std::cerr << "setup failed: " << err << "\n";
      return 1;
    }

    // Best-of-3 wall time for each loader on identical warm files.
    double csv_ms = 1e300;
    double snap_ms = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
      {
        util::Timer t;
        auto r = relation::ReadCsvFile(csv_path, "bench");
        if (!r.ok()) {
          std::cerr << "csv re-ingest failed: " << r.error << "\n";
          return 1;
        }
        csv_ms = std::min(csv_ms, t.ElapsedMs());
        if (rep == 0) {
          CheckEncodedIdentity(rel, *r.relation);
        }
      }
      {
        util::Timer t;
        auto r = storage::LoadRelationSnapshot(snap_path);
        if (!r.ok()) {
          std::cerr << "snapshot load failed: " << r.error << "\n";
          return 1;
        }
        snap_ms = std::min(snap_ms, t.ElapsedMs());
        if (rep == 0) {
          CheckEncodedIdentity(rel, *r.relation);
          CheckQueryIdentity(rel, *r.relation);
        }
      }
    }

    const double speedup = csv_ms / snap_ms;
    min_speedup = std::min(min_speedup, speedup);
    std::vector<std::string> row;
    row.push_back(std::to_string(n));
    std::snprintf(buf, sizeof(buf), "%.2f", csv_ms);
    row.push_back(buf);
    std::snprintf(buf, sizeof(buf), "%.2f", snap_ms);
    row.push_back(buf);
    std::snprintf(buf, sizeof(buf), "%.1fx", speedup);
    row.push_back(buf);
    row.push_back(std::to_string(std::filesystem::file_size(csv_path)));
    row.push_back(std::to_string(std::filesystem::file_size(snap_path)));
    table.AddRow(std::move(row));
  }

  CheckResumeIdentity(0x5eed);

  table.Print(std::cout);
  std::snprintf(buf, sizeof(buf), "%.1f", min_speedup);
  std::cout << "\nminimum speedup: " << buf << "x\n";

  if (g_failures > 0) {
    std::cerr << "\n" << g_failures
              << " identity check(s) FAILED — snapshot load does not "
                 "reproduce the written state\n";
    return 1;
  }
  std::cout << "identity checks passed: loaded state is bit-identical "
               "(encoded layer, group ids, counts, measure doubles, "
               "resumed check sequence)\n";
  return 0;
}
