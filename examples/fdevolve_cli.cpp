// Command-line front end: evolve FDs on any CSV file.
//
// Repair mode (default):
//   $ ./fdevolve_cli <data.csv|snapshot.fdsnap> "<A, B -> C>" [options]
//       --mode=first|all|topk     (default first)
//       --k=N                     (top-k size, default 3)
//       --max-attrs=N             (antecedent additions cap, default 0=all)
//       --target=0.95             (AFD confidence target, default 1.0)
//       --goodness-threshold=N    (prefer repairs with |g| <= N)
//       --exclude-unique          (drop UNIQUE columns from the pool)
//       --threads=N               (repair-search width: candidate batches
//                                  fan out over N threads; 0 = all cores,
//                                  1 = sequential; results are identical
//                                  for every value, only wall time changes)
//       --explain                 (print the repair-search plan — candidate
//                                  order, cost estimates, cardinality
//                                  bounds — without running the search)
//       --budget-ms=X             (wall-clock search budget; best-effort,
//                                  spent cheap/high-signal-first)
//       --budget-cost=X           (modeled-cost budget in ms; deterministic
//                                  truncation point)
//       --no-planner              (disable cardinality-bound pruning; the
//                                  repair set is identical either way when
//                                  no budget is set — only work changes)
//       --cpu-features=T          (pin the SIMD kernel tier: baseline,
//                                  sse42, avx2, or avx512; clamped to what
//                                  the host supports. Results are
//                                  bit-identical across tiers, only speed
//                                  changes. Env: FDEVOLVE_CPU_FEATURES)
//
// Snapshot mode — convert between CSV and the FDEV1 binary snapshot
// format (persists the encoded columns, so loading skips the parse and
// re-dictionary-encode cost entirely):
//   $ ./fdevolve_cli save <data.csv> <out.fdsnap>
//   $ ./fdevolve_cli load <snapshot.fdsnap> [--csv=<out.csv>]
//
// Monitor mode — stream a CSV through the incremental SchemaMonitor (the
// paper's §1 drift scenario): seed it with the first rows, ingest the rest
// in batches, and report every FD that drifts from exact to violated:
//   $ ./fdevolve_cli monitor <data.csv> "A -> B" ["C -> D" ...] [options]
//       --check-interval=N        (validate every N inserts, default 1000)
//       --initial=N               (seed rows, default max(1, rows/10);
//                                  0 streams everything from an empty seed)
//       --batch=N                 (insert batch size, default and maximum:
//                                  check-interval — larger batches would
//                                  under-check)
//       --threads=N               (width of the --suggest repair search,
//                                  as above; checks always run sequentially)
//       --suggest                 (print repair suggestions for drifted FDs)
//       --snapshot=FILE           (write a monitor checkpoint when done)
//       --stop-after=N            (stop after ~N streamed tuples — rounded
//                                  down to a batch boundary so a later
//                                  --resume continues the exact check
//                                  cadence — and skip the final check)
//       --sample=K                (monitor a K-slot reservoir sample
//                                  instead of the full relation; measures
//                                  become estimates with error intervals)
//       --seed=S                  (reservoir seed, default 1; the estimate
//                                  sequence is a pure function of it)
//   $ ./fdevolve_cli monitor <data.csv> --resume=FILE [options]
//       (continues a checkpointed run — exact or sampled, detected from
//        the file: FDs, check interval, and for sampled runs the reservoir
//        capacity/seed/state come from the checkpoint; streams the CSV
//        rows past the checkpoint watermark)
//
// Example (the paper's running example, exported to CSV):
//   $ ./catalog_workflow /tmp/cat
//   $ ./fdevolve_cli /tmp/cat/Places.csv "District, Region -> AreaCode"
#include <algorithm>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "fd/planner.h"
#include "fd/repair_report.h"
#include "fd/repair_search.h"
#include "fd/sampled_monitor.h"
#include "fd/schema_monitor.h"
#include "query/kernels.h"
#include "relation/csv.h"
#include "storage/snapshot.h"
#include "util/cpu_features.h"
#include "util/parse.h"
#include "util/strings.h"
#include "util/timer.h"

namespace {

using namespace fdevolve;

int Usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " <data.csv|snap.fdsnap> \"A, B -> C\" [--mode=first|all|topk]\n"
               "       [--k=N] [--max-attrs=N] [--target=X]\n"
               "       [--goodness-threshold=N] [--exclude-unique] [--threads=N]\n"
               "       [--explain] [--budget-ms=X] [--budget-cost=X] [--no-planner]\n"
               "       [--cpu-features=baseline|sse42|avx2|avx512]\n"
               "   or: " << argv0 << " save <data.csv> <out.fdsnap>\n"
               "   or: " << argv0 << " load <snap.fdsnap> [--csv=<out.csv>]\n"
               "   or: " << argv0
            << " monitor <data.csv> \"A -> B\" [\"C -> D\" ...]\n"
               "       [--check-interval=N] [--initial=N] [--batch=N]\n"
               "       [--threads=N] [--suggest] [--snapshot=FILE]\n"
               "       [--stop-after=N] [--sample=K] [--seed=S]\n"
               "       [--cpu-features=baseline|sse42|avx2|avx512]\n"
               "   or: " << argv0
            << " monitor <data.csv> --resume=FILE\n"
               "       [--batch=N] [--threads=N] [--suggest]\n"
               "       [--snapshot=FILE] [--stop-after=N]\n";
  return 2;
}

bool ParseFlag(const std::string& arg, const std::string& name,
               std::string* value) {
  std::string prefix = "--" + name + "=";
  if (!util::StartsWith(arg, prefix)) return false;
  *value = arg.substr(prefix.size());
  return true;
}

// --cpu-features=baseline|sse42|avx2|avx512: pin the SIMD kernel tier for
// this process. Names above what the host supports are clamped down (so a
// script can say avx512 everywhere); unknown names fail loudly. The
// FDEVOLVE_CPU_FEATURES environment variable is the equivalent knob for
// binaries without flag plumbing.
bool ApplyCpuFeatures(const std::string& value) {
  try {
    query::kernels::ForceTierByName(value);
  } catch (const std::invalid_argument& e) {
    std::cerr << "--cpu-features: " << e.what() << "\n";
    return false;
  }
  return true;
}

// One startup line so every run records which kernels produced it —
// detected host tier and the (possibly clamped or forced) selected tier.
void LogKernelTier() {
  std::cout << "cpu: detected " << util::CpuTierName(query::kernels::DetectedTier())
            << ", kernels " << util::CpuTierName(query::kernels::SelectedTier())
            << "\n";
}

// Checked numeric flag parsing: every numeric flag goes through one of
// these. Unlike the atoi/strtoul they replaced, a malformed or
// out-of-range value ("abc", "12x", "-1" for an unsigned knob) prints the
// offending flag and fails instead of silently becoming 0 — which for
// --threads meant "all cores" and for --check-interval meant "unset".

bool CheckedSize(const std::string& flag, const std::string& value,
                 size_t* out) {
  auto v = util::ParseUint64(value);
  if (!v) {
    std::cerr << "--" << flag << ": expected a non-negative integer, got '"
              << value << "'\n";
    return false;
  }
  *out = static_cast<size_t>(*v);
  return true;
}

bool CheckedInt(const std::string& flag, const std::string& value, int min,
                int* out) {
  auto v = util::ParseInt(value);
  if (!v || *v < min) {
    std::cerr << "--" << flag << ": expected an integer >= " << min
              << ", got '" << value << "'\n";
    return false;
  }
  *out = *v;
  return true;
}

bool CheckedInt64(const std::string& flag, const std::string& value,
                  int64_t min, int64_t* out) {
  auto v = util::ParseInt64(value);
  if (!v || *v < min) {
    std::cerr << "--" << flag << ": expected an integer >= " << min
              << ", got '" << value << "'\n";
    return false;
  }
  *out = *v;
  return true;
}

bool CheckedDouble(const std::string& flag, const std::string& value,
                   double min, double max, double* out) {
  auto v = util::ParseDouble(value);
  if (!v || *v < min || *v > max) {
    std::cerr << "--" << flag << ": expected a number in [" << min << ", "
              << max << "], got '" << value << "'\n";
    return false;
  }
  *out = *v;
  return true;
}

/// Loads a relation from either format: FDEV1 snapshots are recognized by
/// their magic, everything else parses as CSV.
std::optional<relation::Relation> LoadRelationInput(const std::string& path) {
  auto snap = storage::LoadRelationSnapshot(path);
  if (snap.ok()) return std::move(snap.relation);
  if (!snap.not_a_snapshot) {
    // It *was* a snapshot (corrupt, wrong kind, or unreadable) — report
    // that error, not a CSV parse failure on binary bytes.
    std::cerr << "cannot read " << path << ": " << snap.error << "\n";
    return std::nullopt;
  }
  auto csv = relation::ReadCsvFile(path, "input");
  if (!csv.ok()) {
    std::cerr << "cannot read " << path << ": " << csv.error << "\n";
    return std::nullopt;
  }
  return std::move(csv.relation);
}

/// One tuple of `rel` as a Value row (decoded through the dictionaries).
std::vector<relation::Value> RowOf(const relation::Relation& rel, size_t t) {
  std::vector<relation::Value> row;
  row.reserve(static_cast<size_t>(rel.attr_count()));
  for (int a = 0; a < rel.attr_count(); ++a) row.push_back(rel.Get(t, a));
  return row;
}

/// True if the two schemas are identical (names and types, in order) —
/// required between a checkpoint and the stream it resumes against.
bool SameSchema(const relation::Schema& a, const relation::Schema& b) {
  if (a.size() != b.size()) return false;
  for (int i = 0; i < a.size(); ++i) {
    if (a.attr(i).name != b.attr(i).name || a.attr(i).type != b.attr(i).type) {
      return false;
    }
  }
  return true;
}

/// Value equality with doubles compared bitwise (NaN cells must not make
/// identical prefixes look different).
bool SameCell(const relation::Value& a, const relation::Value& b) {
  if (a.is_double() && b.is_double()) {
    const double da = a.as_double();
    const double db = b.as_double();
    return std::memcmp(&da, &db, sizeof(da)) == 0;
  }
  return a == b;
}

/// True if rows [0, prefix.tuple_count()) of `stream` equal `prefix`
/// cell for cell. Compares dictionary codes plus the dictionary prefix:
/// both relations encode values as dense first-appearance codes, so the
/// decoded prefixes are equal iff the code sequences match and the
/// stream's first |prefix dict| dictionary entries match per column —
/// O(prefix cells) integer compares, no decoding.
bool SamePrefix(const relation::Relation& prefix,
                const relation::Relation& stream) {
  for (int i = 0; i < prefix.attr_count(); ++i) {
    const relation::Column& cp = prefix.column(i);
    const relation::Column& cs = stream.column(i);
    if (cp.dict_size() > cs.dict_size()) return false;
    for (size_t c = 0; c < cp.dict_size(); ++c) {
      if (!SameCell(cp.DictValue(static_cast<uint32_t>(c)),
                    cs.DictValue(static_cast<uint32_t>(c)))) {
        return false;
      }
    }
    if (!std::equal(cp.codes().begin(), cp.codes().end(),
                    cs.codes().begin())) {
      return false;
    }
  }
  return true;
}

/// Sampled variant of the monitor loop: same batch grid and check cadence
/// as the exact path, but measures come from a seeded reservoir and every
/// report carries an error interval. Kept separate rather than templated —
/// the summary and checkpoint shapes differ enough that sharing the loop
/// would obscure both.
int RunMonitorSampled(const std::string& csv_path,
                      const relation::Relation& full,
                      std::optional<fd::SampledMonitorCheckpoint> ckpt_opt,
                      const std::vector<std::string>& fd_texts,
                      size_t check_interval, size_t initial, size_t batch,
                      size_t stop_after, size_t sample, uint64_t sample_seed,
                      bool suggest, const std::string& snapshot_path,
                      const std::string& resume_path) {
  constexpr size_t kUnset = static_cast<size_t>(-1);
  if (suggest) {
    // Repair search ranks candidates by exact measures; estimates would
    // rank by noise.
    std::cerr << "monitor --sample: --suggest needs exact measures\n";
    return 2;
  }
  const bool resuming = ckpt_opt.has_value();
  const size_t n = full.tuple_count();

  std::optional<fd::SampledSchemaMonitor> monitor;
  size_t start = 0;
  size_t batch_hint = 0;
  if (resuming) {
    fd::SampledMonitorCheckpoint ckpt = std::move(*ckpt_opt);
    if (!SameSchema(ckpt.base.rel.schema(), full.schema())) {
      std::cerr << "cannot resume: checkpoint schema does not match "
                << csv_path << "\n";
      return 1;
    }
    start = ckpt.base.rel.tuple_count();
    if (start > n) {
      std::cerr << "cannot resume: checkpoint holds " << start
                << " tuples but " << csv_path << " has only " << n << "\n";
      return 1;
    }
    if (!SamePrefix(ckpt.base.rel, full)) {
      std::cerr << "cannot resume: the first " << start << " rows of "
                << csv_path << " differ from the checkpointed stream\n";
      return 1;
    }
    check_interval = ckpt.base.check_interval;
    if (check_interval == 0) check_interval = 1;
    batch_hint = ckpt.base.stream_batch_hint;
    try {
      monitor.emplace(std::move(ckpt));
    } catch (const std::invalid_argument& e) {
      std::cerr << "cannot resume from " << resume_path << ": " << e.what()
                << "\n";
      return 1;
    }
  } else {
    if (initial == kUnset) initial = std::max<size_t>(1, n / 10);
    initial = std::min(initial, n);
    start = initial;

    std::vector<fd::Fd> fds;
    for (const auto& text : fd_texts) {
      try {
        fds.push_back(fd::Fd::Parse(text, full.schema()));
      } catch (const std::invalid_argument& e) {
        std::cerr << "bad FD '" << text << "': " << e.what() << "\n";
        return 1;
      }
    }
    relation::Relation seed_rel(full.name(), full.schema());
    for (size_t t = 0; t < initial; ++t) seed_rel.AppendRow(RowOf(full, t));
    monitor.emplace(std::move(seed_rel), std::move(fds), check_interval,
                    sample, sample_seed);
  }

  // Batch/stop arithmetic identical to the exact path (see RunMonitor):
  // the batch grid IS the check cadence, so resume must reproduce it.
  if (batch == 0) batch = batch_hint != 0 ? batch_hint : check_interval;
  batch = std::min(batch, check_interval);
  size_t stop = n;
  if (stop_after != kUnset) {
    stop = std::min(n, start + (stop_after / batch) * batch);
  }
  const bool truncated = stop < n;

  monitor->OnDrift([&](const fd::DriftEvent& ev) {
    std::cout << "drift @ " << ev.tuple_count << " tuples: "
              << monitor->fds()[ev.fd_index].fd.ToString(full.schema())
              << "  confidence=" << ev.measures.confidence;
    if (ev.approx) {
      std::cout << " in [" << ev.confidence_lo << ", " << ev.confidence_hi
                << "]";
    }
    std::cout << (ev.kind == fd::DriftKind::kRecovered ? "  [recovered]"
                                                       : "  [violated]")
              << "\n";
  });

  std::cout << "Monitoring " << csv_path << " (reservoir "
            << monitor->sample_capacity() << ", seed "
            << monitor->sample_seed() << "): " << n << " rows (" << start
            << (resuming ? " from checkpoint" : " seed") << " + "
            << (stop - start) << " streamed), check every " << check_interval
            << " inserts, batch " << batch << "\n";
  for (size_t i = 0; i < monitor->fds().size(); ++i) {
    const auto& m = monitor->fds()[i];
    std::cout << "  FD#" << i << " " << m.fd.ToString(full.schema())
              << (m.was_exact_at_registration ? "  [no sampled witness]"
                                              : "  [ALREADY VIOLATED]")
              << "\n";
  }

  util::Timer timer;
  std::vector<std::vector<relation::Value>> rows;
  rows.reserve(batch);
  for (size_t t = start; t < stop;) {
    rows.clear();
    const size_t batch_end = std::min(stop, t + batch);
    for (; t < batch_end; ++t) rows.push_back(RowOf(full, t));
    monitor->InsertBatch(rows);
  }
  if (!truncated) monitor->CheckNow();
  const double ms = timer.ElapsedMs();

  std::cout << "\nIngested " << (stop - start) << " tuples in " << ms
            << " ms (" << monitor->checks_run() << " checks";
  if (ms > 0) {
    std::cout << ", " << static_cast<size_t>((stop - start) * 1000.0 / ms)
              << " tuples/sec";
  }
  std::cout << ")\n";
  if (truncated) {
    std::cout << "Stopped at tuple " << stop << " (" << (n - stop)
              << " remaining; resume with --resume)\n";
  }
  std::cout << "Drift events: " << monitor->drift_log().size() << "\n";
  for (size_t i = 0; i < monitor->fds().size(); ++i) {
    const auto& m = monitor->fds()[i];
    const fd::SampledMeasures& est = monitor->estimates()[i];
    std::cout << "  FD#" << i << " " << m.fd.ToString(full.schema())
              << "  c~" << est.measures.confidence;
    if (est.approx) {
      std::cout << " in [" << est.confidence_lo << ", " << est.confidence_hi
                << "]";
    }
    std::cout << "  g~" << est.measures.goodness;
    if (est.approx) {
      std::cout << " in [" << est.goodness_lo << ", " << est.goodness_hi
                << "]";
    }
    std::cout << "  (sample " << est.sample_rows << "/" << est.live_rows
              << " live rows)"
              << (m.violated ? "  VIOLATED (since tuple " +
                                   std::to_string(m.first_violation_at) + ")"
                             : "  no sampled witness")
              << "\n";
  }

  if (!snapshot_path.empty()) {
    fd::SampledMonitorCheckpoint out_ckpt = monitor->Checkpoint();
    out_ckpt.base.stream_batch_hint = batch;
    std::string err;
    if (!storage::SaveSampledCheckpoint(out_ckpt, snapshot_path, &err)) {
      std::cerr << "cannot write checkpoint: " << err << "\n";
      return 1;
    }
    std::cout << "Checkpoint written to " << snapshot_path << " ("
              << monitor->rel().tuple_count() << " tuples)\n";
  }
  return 0;
}

int RunMonitor(int argc, char** argv) {
  if (argc < 4) return Usage(argv[0]);
  const std::string csv_path = argv[2];

  constexpr size_t kUnset = static_cast<size_t>(-1);
  size_t check_interval = kUnset;  // unset = 1000, or the checkpoint's
  size_t initial = kUnset;  // unset = derive from the input size below;
                            // an explicit --initial=0 (empty seed) is valid
  size_t batch = 0;         // 0 = check_interval
  size_t stop_after = kUnset;  // unset = stream to the end
  size_t sample = 0;           // 0 = exact monitoring
  uint64_t sample_seed = 1;
  bool seed_set = false;
  int threads = 0;
  bool suggest = false;
  std::string snapshot_path;
  std::string resume_path;
  std::vector<std::string> fd_texts;
  for (int i = 3; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    if (ParseFlag(arg, "check-interval", &value)) {
      if (!CheckedSize("check-interval", value, &check_interval)) return 2;
    } else if (ParseFlag(arg, "initial", &value)) {
      if (!CheckedSize("initial", value, &initial)) return 2;
    } else if (ParseFlag(arg, "batch", &value)) {
      if (!CheckedSize("batch", value, &batch)) return 2;
    } else if (ParseFlag(arg, "stop-after", &value)) {
      if (!CheckedSize("stop-after", value, &stop_after)) return 2;
    } else if (ParseFlag(arg, "sample", &value)) {
      if (!CheckedSize("sample", value, &sample)) return 2;
      if (sample == 0) {
        std::cerr << "--sample: expected a positive reservoir capacity\n";
        return 2;
      }
    } else if (ParseFlag(arg, "seed", &value)) {
      auto v = util::ParseUint64(value);
      if (!v) {
        std::cerr << "--seed: expected an unsigned integer, got '" << value
                  << "'\n";
        return 2;
      }
      sample_seed = *v;
      seed_set = true;
    } else if (ParseFlag(arg, "threads", &value)) {
      if (!CheckedInt("threads", value, 0, &threads)) return 2;
    } else if (ParseFlag(arg, "cpu-features", &value)) {
      if (!ApplyCpuFeatures(value)) return 2;
    } else if (ParseFlag(arg, "snapshot", &value)) {
      snapshot_path = value;
    } else if (ParseFlag(arg, "resume", &value)) {
      resume_path = value;
    } else if (arg == "--suggest") {
      suggest = true;
    } else if (util::StartsWith(arg, "--")) {
      std::cerr << "unknown option '" << arg << "'\n";
      return Usage(argv[0]);
    } else {
      fd_texts.push_back(arg);
    }
  }
  const bool resuming = !resume_path.empty();
  if (resuming) {
    // A checkpoint fixes the FDs, interval, and stream position; flags
    // that would change the check cadence (and so diverge from the
    // uninterrupted run) are rejected rather than silently ignored.
    if (!fd_texts.empty()) {
      std::cerr << "monitor --resume: FDs come from the checkpoint, drop '"
                << fd_texts[0] << "'\n";
      return 2;
    }
    if (check_interval != kUnset) {
      std::cerr << "monitor --resume: --check-interval comes from the "
                   "checkpoint\n";
      return 2;
    }
    if (initial != kUnset) {
      std::cerr << "monitor --resume: --initial conflicts with the "
                   "checkpoint's stream position\n";
      return 2;
    }
    if (sample != 0 || seed_set) {
      std::cerr << "monitor --resume: --sample/--seed come from the "
                   "checkpoint\n";
      return 2;
    }
  } else if (fd_texts.empty()) {
    std::cerr << "monitor: at least one FD is required\n";
    return Usage(argv[0]);
  }
  if (seed_set && sample == 0) {
    std::cerr << "monitor: --seed needs --sample\n";
    return 2;
  }
  if (check_interval == kUnset) check_interval = 1000;
  if (check_interval == 0) check_interval = 1;

  auto loaded = LoadRelationInput(csv_path);  // CSV or relation snapshot
  if (!loaded) return 1;
  const relation::Relation& full = *loaded;
  const size_t n = full.tuple_count();

  // Sampled monitoring takes its own path below: a fresh run with
  // --sample, or a resume whose file holds a sampled (kind 5) checkpoint.
  std::optional<fd::SampledMonitorCheckpoint> sampled_ckpt;
  if (resuming) {
    auto sc = storage::LoadSampledCheckpoint(resume_path);
    if (sc.ok()) sampled_ckpt = std::move(sc.checkpoint);
  }
  if (sample != 0 || sampled_ckpt.has_value()) {
    return RunMonitorSampled(csv_path, full, std::move(sampled_ckpt),
                             fd_texts, check_interval, initial, batch,
                             stop_after, sample, sample_seed, suggest,
                             snapshot_path, resume_path);
  }

  // Construct the monitor: fresh (seeded from the stream prefix) or
  // resumed from a checkpoint.
  std::optional<fd::SchemaMonitor> monitor;
  size_t start = 0;
  size_t batch_hint = 0;
  if (resuming) {
    auto ckpt = storage::LoadMonitorCheckpoint(resume_path);
    if (!ckpt.ok()) {
      std::cerr << "cannot resume from " << resume_path << ": " << ckpt.error
                << "\n";
      return 1;
    }
    if (!SameSchema(ckpt.checkpoint->rel.schema(), full.schema())) {
      std::cerr << "cannot resume: checkpoint schema does not match "
                << csv_path << "\n";
      return 1;
    }
    start = ckpt.checkpoint->rel.tuple_count();
    if (start > n) {
      std::cerr << "cannot resume: checkpoint holds " << start
                << " tuples but " << csv_path << " has only " << n << "\n";
      return 1;
    }
    // The checkpoint embeds the rows it was built from; the input must
    // actually be the same stream, not merely schema-compatible —
    // resuming onto different data would monitor a hybrid stream that
    // never existed.
    if (!SamePrefix(ckpt.checkpoint->rel, full)) {
      std::cerr << "cannot resume: the first " << start << " rows of "
                << csv_path << " differ from the checkpointed stream\n";
      return 1;
    }
    check_interval = ckpt.checkpoint->check_interval;
    if (check_interval == 0) check_interval = 1;  // never divide below
    batch_hint = ckpt.checkpoint->stream_batch_hint;
    try {
      monitor.emplace(std::move(*ckpt.checkpoint));
    } catch (const std::invalid_argument& e) {
      std::cerr << "cannot resume from " << resume_path << ": " << e.what()
                << "\n";
      return 1;
    }
  } else {
    if (initial == kUnset) initial = std::max<size_t>(1, n / 10);
    initial = std::min(initial, n);
    start = initial;

    std::vector<fd::Fd> fds;
    for (const auto& text : fd_texts) {
      try {
        fds.push_back(fd::Fd::Parse(text, full.schema()));
      } catch (const std::invalid_argument& e) {
        std::cerr << "bad FD '" << text << "': " << e.what() << "\n";
        return 1;
      }
    }
    relation::Relation seed(full.name(), full.schema());
    for (size_t t = 0; t < initial; ++t) seed.AppendRow(RowOf(full, t));
    monitor.emplace(std::move(seed), std::move(fds), check_interval);
  }

  // Batch default: the checkpoint's recorded streaming batch when
  // resuming (so the check cadence continues on the original grid even
  // if the first run used a non-default --batch), else the interval.
  if (batch == 0) batch = batch_hint != 0 ? batch_hint : check_interval;
  // SchemaMonitor::InsertBatch runs at most one check per batch, so a
  // batch larger than the interval would silently under-check; cap it to
  // honor "validate every N inserts" (the header line prints the
  // effective value).
  batch = std::min(batch, check_interval);

  // Where to stop: --stop-after is rounded down to a whole number of
  // batches so a later --resume (with the same --batch) replays the exact
  // batch grid — and therefore the exact check sequence — of an
  // uninterrupted run.
  size_t stop = n;
  if (stop_after != kUnset) {
    stop = std::min(n, start + (stop_after / batch) * batch);
  }
  const bool truncated = stop < n;

  monitor->OnDrift([&](const fd::DriftEvent& ev) {
    std::cout << "drift @ " << ev.tuple_count << " tuples: "
              << monitor->fds()[ev.fd_index].fd.ToString(full.schema())
              << "  confidence=" << ev.measures.confidence
              << "  goodness=" << ev.measures.goodness << "\n";
  });

  LogKernelTier();
  std::cout << "Monitoring " << csv_path << ": " << n << " rows ("
            << start << (resuming ? " from checkpoint" : " seed") << " + "
            << (stop - start) << " streamed), check every " << check_interval
            << " inserts, batch " << batch << "\n";
  for (size_t i = 0; i < monitor->fds().size(); ++i) {
    const auto& m = monitor->fds()[i];
    std::cout << "  FD#" << i << " " << m.fd.ToString(full.schema())
              << (m.was_exact_at_registration ? "  [exact at registration]"
                                              : "  [ALREADY VIOLATED]")
              << "\n";
  }

  util::Timer timer;
  std::vector<std::vector<relation::Value>> rows;
  rows.reserve(batch);
  for (size_t t = start; t < stop;) {
    rows.clear();
    const size_t batch_end = std::min(stop, t + batch);
    for (; t < batch_end; ++t) rows.push_back(RowOf(full, t));
    monitor->InsertBatch(rows);
  }
  if (!truncated) {
    // Final validation for a trailing partial interval. Skipped when
    // --stop-after cut the stream: an extra mid-stream check would make
    // the resumed run diverge from an uninterrupted one.
    monitor->CheckNow();
  }
  const double ms = timer.ElapsedMs();

  std::cout << "\nIngested " << (stop - start) << " tuples in " << ms
            << " ms (" << monitor->checks_run() << " checks";
  if (ms > 0) {
    std::cout << ", " << static_cast<size_t>((stop - start) * 1000.0 / ms)
              << " tuples/sec";
  }
  std::cout << ")\n";
  if (truncated) {
    std::cout << "Stopped at tuple " << stop << " (" << (n - stop)
              << " remaining; resume with --resume)\n";
  }
  std::cout << "Drift events: " << monitor->drift_log().size() << "\n";
  size_t violated_count = 0;
  for (size_t i = 0; i < monitor->fds().size(); ++i) {
    const auto& m = monitor->fds()[i];
    if (m.violated) ++violated_count;
    std::cout << "  FD#" << i << " " << m.fd.ToString(full.schema())
              << "  c=" << m.measures.confidence
              << "  g=" << m.measures.goodness
              << (m.violated ? "  VIOLATED (since tuple " +
                                   std::to_string(m.first_violation_at) + ")"
                             : "  exact")
              << "\n";
  }

  if (!snapshot_path.empty()) {
    fd::MonitorCheckpoint out_ckpt = monitor->Checkpoint();
    out_ckpt.stream_batch_hint = batch;  // lets --resume keep the cadence
    std::string err;
    if (!storage::SaveMonitorCheckpoint(out_ckpt, snapshot_path, &err)) {
      std::cerr << "cannot write checkpoint: " << err << "\n";
      return 1;
    }
    std::cout << "Checkpoint written to " << snapshot_path << " ("
              << monitor->rel().tuple_count() << " tuples)\n";
  }

  if (suggest && violated_count > 0) {
    std::cout << "\nRepair suggestions:\n";
    fd::RepairOptions opts;
    opts.mode = fd::SearchMode::kTopK;
    opts.top_k = 3;
    opts.threads = threads;
    for (const auto& res : monitor->SuggestRepairs(opts)) {
      std::cout << fd::DescribeResult(res, full.schema());
    }
  }
  return 0;
}

int RunSave(int argc, char** argv) {
  if (argc != 4) return Usage(argv[0]);
  const std::string csv_path = argv[2];
  const std::string out_path = argv[3];
  auto loaded = relation::ReadCsvFile(csv_path, "input");
  if (!loaded.ok()) {
    std::cerr << "cannot read " << csv_path << ": " << loaded.error << "\n";
    return 1;
  }
  util::Timer timer;
  std::string err;
  if (!storage::SaveRelationSnapshot(*loaded.relation, out_path, &err)) {
    std::cerr << "cannot write " << out_path << ": " << err << "\n";
    return 1;
  }
  std::cout << "Saved " << loaded.relation->tuple_count() << " tuples x "
            << loaded.relation->attr_count() << " attributes to " << out_path
            << " in " << timer.ElapsedMs() << " ms\n";
  return 0;
}

int RunLoad(int argc, char** argv) {
  if (argc < 3) return Usage(argv[0]);
  const std::string snap_path = argv[2];
  std::string csv_out;
  for (int i = 3; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    if (ParseFlag(arg, "csv", &value)) {
      csv_out = value;
    } else {
      std::cerr << "unknown option '" << arg << "'\n";
      return Usage(argv[0]);
    }
  }
  util::Timer timer;
  auto loaded = storage::LoadRelationSnapshot(snap_path);
  if (!loaded.ok()) {
    std::cerr << "cannot load " << snap_path << ": " << loaded.error << "\n";
    return 1;
  }
  const relation::Relation& rel = *loaded.relation;
  std::cout << "Loaded '" << rel.name() << "' from " << snap_path << " in "
            << timer.ElapsedMs() << " ms: " << rel.tuple_count()
            << " tuples";
  if (rel.dead_count() > 0) {
    // FDEV2 snapshots carry the deletion log, so a mutated relation
    // round-trips with its tombstones intact.
    std::cout << " (" << rel.live_count() << " live, " << rel.dead_count()
              << " deleted)";
  }
  std::cout << ", ~" << rel.EstimatedBytes() << " bytes\n";
  for (int i = 0; i < rel.attr_count(); ++i) {
    const auto& a = rel.schema().attr(i);
    std::cout << "  " << a.name << ":" << relation::DataTypeName(a.type)
              << "  |dict|=" << rel.column(i).dict_size()
              << (rel.column(i).has_nulls()
                      ? " (+" + std::to_string(rel.column(i).null_count()) +
                            " NULLs)"
                      : "")
              << "\n";
  }
  if (!csv_out.empty()) {
    std::string err;
    if (!relation::WriteCsvFile(rel, csv_out, &err)) {
      // E.g. a string cell this dialect cannot represent — the snapshot
      // format is a superset of CSV.
      std::cerr << "cannot export to " << csv_out << ": " << err << "\n";
      return 1;
    }
    std::cout << "Exported to " << csv_out << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2) {
    const std::string subcommand = argv[1];
    if (subcommand == "monitor") return RunMonitor(argc, argv);
    if (subcommand == "save") return RunSave(argc, argv);
    if (subcommand == "load") return RunLoad(argc, argv);
  }
  if (argc < 3) return Usage(argv[0]);
  const std::string csv_path = argv[1];
  const std::string fd_text = argv[2];

  fd::RepairOptions opts;
  opts.mode = fd::SearchMode::kFirstRepair;
  bool explain_only = false;
  for (int i = 3; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    if (ParseFlag(arg, "mode", &value)) {
      if (value == "first") {
        opts.mode = fd::SearchMode::kFirstRepair;
      } else if (value == "all") {
        opts.mode = fd::SearchMode::kAllRepairs;
      } else if (value == "topk") {
        opts.mode = fd::SearchMode::kTopK;
      } else {
        std::cerr << "unknown mode '" << value << "'\n";
        return Usage(argv[0]);
      }
    } else if (ParseFlag(arg, "k", &value)) {
      if (!CheckedSize("k", value, &opts.top_k)) return 2;
    } else if (ParseFlag(arg, "max-attrs", &value)) {
      if (!CheckedInt("max-attrs", value, 0, &opts.max_added_attrs)) return 2;
    } else if (ParseFlag(arg, "target", &value)) {
      if (!CheckedDouble("target", value, 0.0, 1.0,
                         &opts.target_confidence)) {
        return 2;
      }
    } else if (ParseFlag(arg, "goodness-threshold", &value)) {
      // -1 is the documented "unset" sentinel; anything smaller is junk.
      if (!CheckedInt64("goodness-threshold", value, -1,
                        &opts.goodness_threshold)) {
        return 2;
      }
    } else if (ParseFlag(arg, "threads", &value)) {
      if (!CheckedInt("threads", value, 0, &opts.threads)) return 2;
    } else if (ParseFlag(arg, "cpu-features", &value)) {
      if (!ApplyCpuFeatures(value)) return 2;
    } else if (ParseFlag(arg, "budget-ms", &value)) {
      if (!CheckedDouble("budget-ms", value, 0.0, 1e12, &opts.budget_ms)) {
        return 2;
      }
    } else if (ParseFlag(arg, "budget-cost", &value)) {
      if (!CheckedDouble("budget-cost", value, 0.0, 1e12,
                         &opts.budget_cost)) {
        return 2;
      }
    } else if (arg == "--no-planner") {
      opts.use_planner = false;
    } else if (arg == "--explain") {
      explain_only = true;
    } else if (arg == "--exclude-unique") {
      opts.pool.exclude_unique = true;
    } else {
      std::cerr << "unknown option '" << arg << "'\n";
      return Usage(argv[0]);
    }
  }

  auto input = LoadRelationInput(csv_path);
  if (!input) return 1;
  const relation::Relation& rel = *input;

  fd::Fd fd;
  try {
    fd = fd::Fd::Parse(fd_text, rel.schema());
  } catch (const std::invalid_argument& e) {
    std::cerr << "bad FD: " << e.what() << "\n";
    return 1;
  }

  LogKernelTier();
  std::cout << "Relation: " << csv_path << " (" << rel.tuple_count()
            << " tuples, " << rel.attr_count() << " attributes)\n";
  if (explain_only) {
    // Estimates only: render the plan (candidate order, cost estimates,
    // cardinality bounds, budget) without evaluating anything.
    std::cout << fd::DescribePlan(fd::PlanRepair(rel, fd, opts),
                                  rel.schema());
    return 0;
  }
  auto res = fd::Extend(rel, fd, opts);
  std::cout << fd::DescribeResult(res, rel.schema());
  std::cout << "search: " << res.stats.candidates_evaluated
            << " candidates evaluated, " << res.stats.pruned_by_bound
            << " pruned by bound, in " << res.stats.elapsed_ms
            << " ms (stop: " << fd::ToString(res.stats.stop_reason) << ")\n";
  return res.already_exact || res.found() ? 0 : 3;
}
