// fdbench — one command that runs a named workload end to end, checks its
// outputs, and prints every metric by name and unit.
//
//   fdbench --workload ingest_churn|analyst_mixed|repair_search
//           [--seed N] [--seconds S] [--trace 0|1] [--tiny]
//           [--work-dir DIR] [--expected FILE] [--write-expected]
//           [--drop-journal-line K] [--commit SHA]
//
// Output: a `REPORT {...}` line (run metadata, every end-to-end and layer
// metric, sample summaries, gates), then, as the last line, the result
// object {"correct","attempted","failed","metrics"} holding the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// Exit status is 0 only when every correctness gate passed and no
// operation failed.
#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>

#include "query/kernels.h"
#include "util/cpu_features.h"
#include "workloads.h"

namespace {

using fdbench::Result;

// The result line's metrics; every workload reports each of them.
const std::vector<std::string> kEndToEnd = {"setup_s", "peak_rss_mb",
                                            "ops_per_s", "op_p50_us"};
const std::vector<std::string> kPerLayer = {
    "query.column_stats_ms",      "query.distinct_count_t1_ms",
    "query.distinct_count_tN_ms", "query.parallel_speedup",
    "fd.plan_ms",                 "fd.extend_t1_ms",
    "fd.extend_tN_ms",            "fd.candidates_evaluated",
    "fd.pruned_by_bound",         "fd.repairs_found",
    "fd.useful_eval_ratio",       "fd.cost_model_ratio",
    "clustering.rank_eb_ms",      "server.journal_bytes",
    "server.drift_pushes",        "relation.compactions",
    "fd.checks",                  "fd.drift_events"};

// Layer counts a workload does not exercise read 0 (the layer did no such
// work), so every run reports the same per-layer names.
void FillIdleLayers(Result& result) {
  const std::pair<const char*, const char*> counts[] = {
      {"server.journal_bytes", "bytes"}, {"server.drift_pushes", "count"},
      {"relation.compactions", "count"}, {"fd.checks", "count"},
      {"fd.drift_events", "count"}};
  for (const auto& [name, unit] : counts) {
    if (!result.Has(name)) result.Set(name, unit, 0);
  }
}

[[noreturn]] void Usage(const std::string& why) {
  std::cerr << "fdbench: " << why
            << "\nusage: fdbench --workload ingest_churn|analyst_mixed|"
               "repair_search [--seed N] [--seconds S] [--trace 0|1] "
               "[--tiny] [--work-dir DIR] [--expected FILE] "
               "[--write-expected] [--drop-journal-line K] [--commit SHA]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fdbench;
  Config cfg;
  std::string commit = "unknown";
  cfg.work_dir = ".bench_build/run";
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage("missing value for " + a);
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        cfg.workload = value();
      } else if (a == "--seed") {
        cfg.seed = std::stoull(value());
      } else if (a == "--seconds") {
        cfg.seconds = std::stod(value());
      } else if (a == "--trace") {
        cfg.trace = value() != "0";
      } else if (a == "--tiny") {
        cfg.tiny = true;
      } else if (a == "--work-dir") {
        cfg.work_dir = value();
      } else if (a == "--expected") {
        cfg.expected_path = value();
      } else if (a == "--write-expected") {
        cfg.write_expected = true;
      } else if (a == "--drop-journal-line") {
        cfg.drop_journal_line = std::stol(value());
      } else if (a == "--commit") {
        commit = value();
      } else {
        Usage("unknown argument " + a);
      }
    } catch (const std::logic_error&) {
      Usage("bad value for " + a);
    }
  }
  if (cfg.seconds <= 0) Usage("--seconds must be positive");
  cfg.threads = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  // ingest_churn sets up in a fraction of a second: more repeats steady
  // its median at little cost.
  cfg.setup_repeats = cfg.tiny ? 2 : cfg.workload == "ingest_churn" ? 5 : 3;

  std::error_code ec;
  std::filesystem::create_directories(cfg.work_dir, ec);
  if (ec) Usage("cannot create work dir " + cfg.work_dir + ": " + ec.message());

  Result result;
  result.Meta("workload", cfg.workload);
  result.Meta("seed", static_cast<double>(cfg.seed));
  result.Meta("seconds", cfg.seconds);
  result.Meta("trace", cfg.trace ? 1.0 : 0.0);
  result.Meta("tiny", cfg.tiny ? 1.0 : 0.0);
  result.Meta("git_commit", commit);
  result.Meta("nproc", cfg.threads);
  result.Meta("setup_runs", cfg.setup_repeats);
  result.Meta("kernel_tier_detected", fdevolve::util::CpuTierName(
                                          fdevolve::query::kernels::DetectedTier()));
  result.Meta("kernel_tier_selected", fdevolve::util::CpuTierName(
                                          fdevolve::query::kernels::SelectedTier()));
  result.Meta("flush_policy",
              "server defaults: journal in memory, CHECKPOINT via "
              "ofstream::flush, no fsync");
  try {
    if (cfg.workload == "ingest_churn") {
      RunIngestChurn(cfg, result);
    } else if (cfg.workload == "analyst_mixed") {
      RunAnalystMixed(cfg, result);
    } else if (cfg.workload == "repair_search") {
      RunRepairSearch(cfg, result);
    } else {
      Usage("unknown workload '" + cfg.workload + "'");
    }
    FillIdleLayers(result);
    result.PrintGates();
    std::cout << result.ReportLine() << "\n";
    std::cout << result.ContractLine(cfg.trace ? kPerLayer : kEndToEnd)
              << std::endl;
  } catch (const std::exception& e) {
    std::cerr << "fdbench: " << e.what() << "\n";
    return 2;
  }
  return result.ok() ? 0 : 1;
}
