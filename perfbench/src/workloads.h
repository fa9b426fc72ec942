// The three fdbench workloads. Each fills `result` with its end-to-end
// metrics (always) and its per-layer metrics (traced runs), plus the
// correctness gates, and never throws for an operation that merely
// failed: failures are counted against attempts.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "report.h"

namespace fdbench {

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Smoke-test sizes: every code path, a fraction of the data.
  bool tiny = false;
  /// >= 0: the replay skips this journal line (identity-gate self test).
  long drop_journal_line = -1;
  /// Directory for snapshots and span files; created by main().
  std::string work_dir;
  /// repair_search: file of the expected suite fingerprint (checked when
  /// non-empty), or the file to write it to when `write_expected`.
  std::string expected_path;
  bool write_expected = false;
  int threads = 1;         ///< nproc: width of the parallel search paths
  int setup_repeats = 3;   ///< set-ups per run; setup_s is their median
};

void RunIngestChurn(const Config& cfg, Result& result);
void RunAnalystMixed(const Config& cfg, Result& result);
void RunRepairSearch(const Config& cfg, Result& result);

}  // namespace fdbench
