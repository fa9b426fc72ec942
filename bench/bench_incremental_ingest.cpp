// Incremental-ingest throughput: a monitored insert stream through the
// delta-maintained SchemaMonitor versus the pre-incremental "rebuild a
// fresh evaluator on every check" baseline.
//
// The workload is the paper's §1 drift scenario: a relation whose declared
// FDs hold at design time receives a long append stream with periodic
// validity checks; midway, reality changes (a zip-code split) and one FD
// drifts from exact to violated. With a check every `interval` inserts the
// rebuild baseline costs O(n) per check — O(n²/interval) for the stream —
// while the incremental monitor advances its cached groupings over just
// the appended suffix, O(n) total. The sweep over intervals makes the
// asymptotic gap visible: the tighter the checking (the paper's
// "continuous" end of the spectrum), the larger the win.
//
// Besides the throughput table, this bench is a bit-identity gate: the
// per-check measure sequence (distinct counts, confidence, goodness,
// violation flags — doubles compared exactly) and the drift log of the
// incremental run must equal the rebuild baseline's at every interval, and
// the final maintained counts must equal from-scratch DistinctCount
// answers. Any mismatch exits non-zero, so CI can run it as a smoke step.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "fd/schema_monitor.h"
#include "query/distinct.h"
#include "relation/relation.h"
#include "util/rng.h"
#include "util/table_printer.h"
#include "util/timer.h"

namespace {

using namespace fdevolve;
using relation::DataType;
using relation::Relation;
using relation::Schema;
using relation::Value;

constexpr size_t kZips = 600;
constexpr size_t kStates = 40;
constexpr size_t kCities = 900;

Schema IngestSchema() {
  return Schema({{"zip", DataType::kInt64},
                 {"state", DataType::kInt64},
                 {"city", DataType::kInt64},
                 {"pop", DataType::kInt64}});
}

/// The stream: zip -> state holds exactly until `drift_at`, after which
/// low zips split across a second state value (the paper's area-code
/// split); city -> pop holds for the whole stream.
std::vector<std::vector<Value>> MakeStream(size_t n, size_t drift_at,
                                           uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::vector<Value>> rows;
  rows.reserve(n);
  for (size_t t = 0; t < n; ++t) {
    const auto zip = static_cast<int64_t>(rng.Below(kZips));
    auto state = static_cast<int64_t>(zip % kStates);
    if (t >= drift_at && zip < 32 && rng.Chance(0.5)) {
      state = static_cast<int64_t>(kStates) + (zip % 2);
    }
    const auto city = static_cast<int64_t>(rng.Below(kCities));
    const auto pop = static_cast<int64_t>(city % 7);
    rows.push_back({zip, state, city, pop});
  }
  return rows;
}

/// One FD's measured state at one check — every field that CheckNow
/// derives, captured for exact comparison across the two execution paths.
struct CheckRecord {
  size_t distinct_x, distinct_xy, distinct_y;
  double confidence;
  int64_t goodness;
  bool violated;

  bool operator==(const CheckRecord& o) const {
    return distinct_x == o.distinct_x && distinct_xy == o.distinct_xy &&
           distinct_y == o.distinct_y && confidence == o.confidence &&
           goodness == o.goodness && violated == o.violated;
  }
  bool operator!=(const CheckRecord& o) const { return !(*this == o); }
};

struct RunResult {
  std::vector<CheckRecord> checks;  // per check × per FD, flattened
  std::vector<size_t> drift_at;     // tuple counts of drift events
  double ms = 0.0;
};

Relation SeedRelation(const std::vector<std::vector<Value>>& rows,
                      size_t seed_rows) {
  Relation rel("ingest", IngestSchema());
  for (size_t t = 0; t < seed_rows; ++t) rel.AppendRow(rows[t]);
  return rel;
}

/// Pre-chunks the streamed suffix into interval-sized batches so neither
/// timed path pays for row copying.
std::vector<std::vector<std::vector<Value>>> ChunkStream(
    const std::vector<std::vector<Value>>& rows, size_t seed_rows,
    size_t interval) {
  std::vector<std::vector<std::vector<Value>>> batches;
  for (size_t t = seed_rows; t < rows.size();) {
    const size_t stop = std::min(rows.size(), t + interval);
    batches.emplace_back(rows.begin() + static_cast<ptrdiff_t>(t),
                         rows.begin() + static_cast<ptrdiff_t>(stop));
    t = stop;
  }
  return batches;
}

/// Incremental path: one long-lived SchemaMonitor, one batch per interval.
RunResult RunIncremental(
    const std::vector<std::vector<Value>>& rows, size_t seed_rows,
    size_t interval,
    const std::vector<std::vector<std::vector<Value>>>& batches,
    const std::vector<fd::Fd>& fds) {
  RunResult out;
  util::Timer timer;
  Relation rel = SeedRelation(rows, seed_rows);
  fd::SchemaMonitor monitor(&rel, fds, interval);
  monitor.OnDrift([&](const fd::DriftEvent& ev) {
    out.drift_at.push_back(ev.tuple_count);
  });
  for (const auto& batch : batches) {
    const size_t checks_before = monitor.checks_run();
    rel.AppendRows(batch);
    monitor.Poll();
    if (monitor.checks_run() == checks_before) {
      // A trailing batch shorter than the interval triggers no automatic
      // check; force one so the recorded sequence lines up with the
      // rebuild path's check-per-batch regardless of divisibility.
      monitor.CheckNow();
    }
    for (const auto& m : monitor.fds()) {
      out.checks.push_back({m.measures.distinct_x, m.measures.distinct_xy,
                            m.measures.distinct_y, m.measures.confidence,
                            m.measures.goodness, m.violated});
    }
  }
  out.ms = timer.ElapsedMs();
  return out;
}

/// Rebuild baseline: what SchemaMonitor::CheckNow did before the
/// incremental refactor — a fresh DistinctEvaluator per check, so every
/// check rescans the whole relation.
RunResult RunRebuild(
    const std::vector<std::vector<Value>>& rows, size_t seed_rows,
    const std::vector<std::vector<std::vector<Value>>>& batches,
    const std::vector<fd::Fd>& fds) {
  RunResult out;
  util::Timer timer;
  Relation rel = SeedRelation(rows, seed_rows);
  std::vector<bool> violated(fds.size());
  {
    query::DistinctEvaluator eval(rel);
    for (size_t i = 0; i < fds.size(); ++i) {
      violated[i] = !ComputeMeasures(eval, fds[i]).exact;
    }
  }
  for (const auto& batch : batches) {
    rel.AppendRows(batch);
    query::DistinctEvaluator eval(rel);  // the O(n) rebuild
    for (size_t i = 0; i < fds.size(); ++i) {
      fd::FdMeasures m = ComputeMeasures(eval, fds[i]);
      const bool was_violated = violated[i];
      violated[i] = !m.exact;
      if (violated[i] && !was_violated) out.drift_at.push_back(rel.tuple_count());
      out.checks.push_back({m.distinct_x, m.distinct_xy, m.distinct_y,
                            m.confidence, m.goodness, violated[i]});
    }
  }
  out.ms = timer.ElapsedMs();
  return out;
}

std::string Ms(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", v);
  return buf;
}

std::string PerSec(size_t tuples, double ms) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.0f", ms > 0 ? tuples * 1000.0 / ms : 0.0);
  return buf;
}

}  // namespace

int main() {
  const bool fast = bench::FastMode();
  const size_t n = fast ? 20000 : 100000;
  const size_t seed_rows = n / 10;
  const size_t streamed = n - seed_rows;
  // From "periodic" to (nearly) the paper's "continuous checks of FD
  // validity": the monitor's default interval is 1, where the rebuild
  // baseline is fully quadratic; 10 is the tightest the baseline can
  // stand in this bench's time budget.
  const size_t intervals[] = {n / 100, n / 1000, 10};

  const Schema schema = IngestSchema();
  const std::vector<fd::Fd> fds = {
      fd::Fd::Parse("zip -> state", schema, "F1"),   // drifts mid-stream
      fd::Fd::Parse("city -> pop", schema, "F2"),    // stays exact
      fd::Fd::Parse("zip, city -> state", schema, "F3")};
  const auto rows = MakeStream(n, n / 2, /*seed=*/20160315);

  if (fast) std::cout << "FDEVOLVE_BENCH_FAST\n";
  util::TablePrinter t("incremental ingest (" + std::to_string(n) +
                       " tuples, " + std::to_string(seed_rows) + " seed, " +
                       std::to_string(fds.size()) + " FDs)");
  t.SetHeader({"check every", "rebuild ms", "incremental ms",
               "incr tuples/sec", "speedup"});

  // From-scratch ground truth for the final instance, shared by every
  // interval's identity check below (interval-invariant).
  Relation final_rel("ingest", schema);
  final_rel.AppendRows(rows);
  std::vector<size_t> expect_x, expect_xy;
  for (const auto& f : fds) {
    expect_x.push_back(query::DistinctCount(final_rel, f.lhs()));
    expect_xy.push_back(query::DistinctCount(final_rel, f.AllAttrs()));
  }

  bool ok = true;
  size_t drift_tuple = 0;
  for (size_t interval : intervals) {
    const auto batches = ChunkStream(rows, seed_rows, interval);
    RunResult inc = RunIncremental(rows, seed_rows, interval, batches, fds);
    RunResult reb = RunRebuild(rows, seed_rows, batches, fds);

    char speedup[32];
    std::snprintf(speedup, sizeof(speedup), "%.2fx",
                  inc.ms > 0 ? reb.ms / inc.ms : 0.0);
    t.AddRow({std::to_string(interval), Ms(reb.ms), Ms(inc.ms),
              PerSec(streamed, inc.ms), speedup});

    if (inc.checks != reb.checks) {
      std::cerr << "FAIL: per-check measures diverge between incremental and "
                   "rebuild paths at interval " << interval << "\n";
      ok = false;
    }
    if (inc.drift_at != reb.drift_at) {
      std::cerr << "FAIL: drift logs diverge at interval " << interval << "\n";
      ok = false;
    }
    if (inc.drift_at.empty()) {
      std::cerr << "FAIL: the planted drift was not detected at interval "
                << interval << "\n";
      ok = false;
    } else {
      drift_tuple = inc.drift_at.front();
    }

    // Third leg of the gate: the maintained groupings' counts must equal
    // from-scratch counts on the final instance.
    for (size_t i = 0; i < fds.size(); ++i) {
      const CheckRecord& last =
          inc.checks[inc.checks.size() - fds.size() + i];
      if (last.distinct_x != expect_x[i] || last.distinct_xy != expect_xy[i]) {
        std::cerr << "FAIL: maintained counts diverge from from-scratch "
                     "counts for FD '" << fds[i].label() << "'\n";
        ok = false;
      }
    }
  }
  t.Print(std::cout);

  if (!ok) return 1;
  std::cout << "drift detected at tuple " << drift_tuple
            << "; incremental path bit-identical to rebuild baseline at "
               "every interval\n";
  return 0;
}
