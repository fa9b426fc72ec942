// Layer-by-layer re-execution used by the traced run and the identity
// gates.
//
//   * ReplayJournals re-applies each table's committed Service journal
//     single-threaded through the library's public calls, in the order
//     server::Service applies them (ParseStatement -> sql::Execute -> the
//     compaction rule -> SchemaMonitor::Poll -> SampledSchemaMonitor::Poll),
//     timing each call as a span. Its serialized state must equal the live
//     server's byte for byte.
//   * MeasureSearchLayers times the repair-search stack (column stats,
//     planner, distinct counts, Extend at 1 and N threads, EB ranking) on
//     a fixed list of FDs.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "fd/repair_search.h"
#include "fd/sampled_monitor.h"
#include "fd/schema_monitor.h"
#include "report.h"
#include "sql/database.h"

namespace fdbench {

/// The compaction rule of server::Service::MaybeCompact, copied here so
/// the replay can time it as its own span. The identity gate proves the
/// copy still matches the server's.
constexpr size_t kCompactMinRows = 64;

/// Per-table commit-order journals, in the order the tables' FDs were
/// declared (the catalog's FD registry order is global).
using Journals = std::vector<std::pair<std::string, std::vector<std::string>>>;

struct ReplayState {
  fdevolve::sql::Database db;
  std::map<std::string, std::unique_ptr<fdevolve::fd::SchemaMonitor>> exact;
  std::map<std::string, std::unique_ptr<fdevolve::fd::SampledSchemaMonitor>>
      sampled;

  /// storage::SerializeServerState of this state — the bytes the live
  /// Service::SerializeState() must equal.
  std::string Serialize() const;
};

struct ReplayTimings {
  std::vector<double> parse_us, insert_us, delete_us, update_us;
  std::vector<double> compact_ms, poll_us, sampled_poll_us;
  uint64_t rows_examined = 0;  ///< live rows before each DELETE/UPDATE
  uint64_t rows_changed = 0;   ///< rows those statements deleted/updated
};

/// Loads `snapshot` (server-state bytes) and replays `journals` on it.
/// `drop_line` >= 0 skips that statement (counted across all tables in
/// order) — the smoke test's way to prove the identity gate can fire.
/// Throws std::runtime_error when a statement fails.
std::unique_ptr<ReplayState> ReplayJournals(const std::string& snapshot,
                                            const Journals& journals,
                                            Tracer& tracer,
                                            ReplayTimings* timings,
                                            long drop_line = -1);

/// One repair-search call of a layer measurement.
struct SearchItem {
  std::string label;
  const fdevolve::relation::Relation* rel = nullptr;
  fdevolve::fd::Fd fd;
  fdevolve::fd::RepairOptions opts;
  bool find_all_fds = false;  ///< run through FindFdRepairs (Algorithm 1)
};

/// Runs one item at `threads`; returns its canonical fingerprint (repair
/// attribute sets and measure doubles, bit-exact) and adds its stats and
/// repair count to `total` / `repairs` when non-null.
std::string RunSearchItem(const SearchItem& item, int threads,
                          fdevolve::fd::SearchStats* total, size_t* repairs);

/// Times every layer of the repair-search stack on `items` (plus EB
/// ranking on `rank_items`) and records the per-layer metrics and the
/// thread-identity gate into `result`.
void MeasureSearchLayers(const std::vector<SearchItem>& items,
                         const std::vector<SearchItem>& rank_items,
                         int threads, Tracer& tracer, Result& result);

}  // namespace fdbench
