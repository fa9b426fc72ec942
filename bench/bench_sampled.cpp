// Sampled-monitoring bench: what does a reservoir estimate cost, and
// what does its interval width buy, against the exact monitor?
//
// Three questions, three phases:
//
//   1. Per-check latency vs exact — the exact monitor's steady state is
//      incremental, so the honest comparison is the *cold* cost: an
//      exact first check builds full partitions over the live relation
//      (O(n)); a sampled check re-estimates from the k maintained
//      reservoir rows (O(k), n-independent). Timed at two relation
//      sizes (10x apart, 100k/1M full mode), same fixed k: the sampled
//      latency must stay roughly flat while the exact one grows, which
//      is the entire point of monitoring by sample. The speedup lands
//      in the JSON for trend tracking (not hard-gated: CI timing
//      flakes).
//   2. Interval width vs k — the Good–Turing confidence interval at the
//      large size for k in {64, 256, 1024, 4096}: more sample, tighter
//      stated uncertainty. Width is deterministic given the seed.
//   3. Identity gate (hard, exit-nonzero) — a reservoir with capacity
//      >= rows covers every live row, and its measures must equal the
//      exact monitor's bit for bit (the sample_rate=1.0 ≡ exact
//      contract, same gate the differential suites enforce).
//
// Results land in BENCH_sampled.json in the working directory.
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "fd/schema_monitor.h"
#include "relation/relation.h"
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

Schema TwoInts() {
  return Schema({{"x", DataType::kInt64}, {"y", DataType::kInt64}});
}

/// x over a domain of rows/8 keys, y functionally derived with ~1% of
/// rows violating x -> y — confidence just below 1, so neither estimator
/// sits on a degenerate value.
Relation BuildRelation(size_t rows, uint64_t seed) {
  util::Rng rng(seed);
  Relation rel("bench", TwoInts());
  const uint64_t domain = rows / 8 + 2;
  for (size_t i = 0; i < rows; ++i) {
    const int64_t x = static_cast<int64_t>(rng.Below(domain));
    const int64_t y = rng.Chance(0.01) ? x * 3 + 1 : x * 3;
    rel.AppendRow({Value(x), Value(y)});
  }
  return rel;
}

fd::Fd XtoY() { return fd::Fd(AttrSet::Of({0}), AttrSet::Of({1})); }

std::string Fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.4f", v);
  return buf;
}

int g_gate_failures = 0;

struct CheckLatency {
  double exact_ms = 0;
  double sampled_ms = 0;
};

/// Times `reps` cold exact checks (fresh monitor, full O(n) partition
/// build — the exact monitor's steady state is incremental, so the cold
/// path is where the relation size actually bites) against `reps`
/// sampled re-estimates from an already-maintained reservoir (the O(k)
/// steady state a sampled monitor polls in).
CheckLatency TimeChecks(Relation& rel, size_t capacity, int reps) {
  CheckLatency out;
  util::Timer exact_timer;
  for (int i = 0; i < reps; ++i) {
    fd::SchemaMonitor exact(&rel, {XtoY()},
                            /*check_interval=*/1);
    exact.CheckNow();
  }
  out.exact_ms = exact_timer.ElapsedMs() / reps;
  fd::SchemaMonitor sampled(&rel, {XtoY()},
                            /*check_interval=*/1, capacity,
                            /*seed=*/0x5eedbe9cULL);
  sampled.CheckNow();  // warm: reservoir synced, estimate caches primed
  util::Timer sampled_timer;
  for (int i = 0; i < reps; ++i) sampled.CheckNow();
  out.sampled_ms = sampled_timer.ElapsedMs() / reps;
  return out;
}

/// Confidence-interval width the monitor states at this capacity.
double IntervalWidth(Relation& rel, size_t capacity) {
  fd::SchemaMonitor mon(&rel, {XtoY()},
                        /*check_interval=*/1, capacity,
                        /*seed=*/0x5eedbe9cULL);
  mon.CheckNow();
  const fd::SampledMeasures& est = mon.estimates()[0];
  return est.confidence_hi - est.confidence_lo;
}

/// Hard gate: full coverage must reproduce the exact measures bitwise.
void CheckFullCoverageIdentity(Relation& rel) {
  fd::SchemaMonitor exact(&rel, {XtoY()},
                          /*check_interval=*/1);
  fd::SchemaMonitor full(&rel, {XtoY()},
                         /*check_interval=*/1,
                         /*capacity=*/rel.tuple_count() + 1,
                         /*seed=*/1);
  exact.CheckNow();
  full.CheckNow();
  const fd::FdMeasures& a = exact.fds()[0].measures;
  const fd::FdMeasures& b = full.fds()[0].measures;
  if (a.confidence != b.confidence || a.distinct_x != b.distinct_x ||
      a.distinct_xy != b.distinct_xy || a.goodness != b.goodness) {
    std::cerr << "IDENTITY FAIL: full-coverage sample diverges from exact\n";
    ++g_gate_failures;
  }
  if (full.estimates()[0].approx) {
    std::cerr << "IDENTITY FAIL: full coverage still flagged approx\n";
    ++g_gate_failures;
  }
}

}  // namespace

int main() {
  const bool fast = bench::FastMode();
  const size_t kSmall = fast ? 25'000 : 100'000;
  const size_t kLarge = fast ? 250'000 : 1'000'000;
  const size_t kCapacity = 1024;
  const int kReps = fast ? 3 : 5;
  const std::vector<size_t> kWidthCaps = {64, 256, 1024, 4096};

  Relation small = BuildRelation(kSmall, 0x2545f4914f6cdd1dULL);
  Relation large = BuildRelation(kLarge, 0x2545f4914f6cdd1dULL);

  CheckLatency lat_small = TimeChecks(small, kCapacity, kReps);
  CheckLatency lat_large = TimeChecks(large, kCapacity, kReps);
  const double speedup = lat_large.sampled_ms > 0
                             ? lat_large.exact_ms / lat_large.sampled_ms
                             : 0.0;

  std::vector<double> widths;
  for (size_t cap : kWidthCaps) widths.push_back(IntervalWidth(large, cap));

  CheckFullCoverageIdentity(small);

  util::TablePrinter table("sampled monitoring (k=" +
                           std::to_string(kCapacity) + " reservoir)");
  table.SetHeader({"phase", "rows", "metric", "value"});
  table.AddRow({"check", std::to_string(kSmall), "exact cold ms",
                Fmt(lat_small.exact_ms)});
  table.AddRow({"check", std::to_string(kSmall), "sampled est ms",
                Fmt(lat_small.sampled_ms)});
  table.AddRow({"check", std::to_string(kLarge), "exact cold ms",
                Fmt(lat_large.exact_ms)});
  table.AddRow({"check", std::to_string(kLarge), "sampled est ms",
                Fmt(lat_large.sampled_ms)});
  table.AddRow({"check", "10x scaling", "exact/sampled", Fmt(speedup)});
  for (size_t i = 0; i < kWidthCaps.size(); ++i) {
    table.AddRow({"interval", std::to_string(kLarge),
                  "width @ k=" + std::to_string(kWidthCaps[i]),
                  Fmt(widths[i])});
  }
  table.Print(std::cout);
  if (fast) std::cout << "FDEVOLVE_BENCH_FAST\n";

  std::ofstream json("BENCH_sampled.json");
  json << "{\n"
       << "  \"rows_small\": " << kSmall << ",\n"
       << "  \"rows_large\": " << kLarge << ",\n"
       << "  \"sample_capacity\": " << kCapacity << ",\n"
       << "  \"exact_check_ms_small\": " << lat_small.exact_ms << ",\n"
       << "  \"sampled_check_ms_small\": " << lat_small.sampled_ms << ",\n"
       << "  \"exact_check_ms_large\": " << lat_large.exact_ms << ",\n"
       << "  \"sampled_check_ms_large\": " << lat_large.sampled_ms << ",\n"
       << "  \"large_check_speedup\": " << speedup << ",\n"
       << "  \"interval_width_k64\": " << widths[0] << ",\n"
       << "  \"interval_width_k256\": " << widths[1] << ",\n"
       << "  \"interval_width_k1024\": " << widths[2] << ",\n"
       << "  \"interval_width_k4096\": " << widths[3] << ",\n"
       << "  \"identity_gate_failures\": " << g_gate_failures << ",\n"
       << "  \"fast\": " << (fast ? "true" : "false") << "\n"
       << "}\n";

  if (g_gate_failures != 0) {
    std::cerr << "FAIL: " << g_gate_failures
              << " identity checks diverged from exact monitor\n";
    return 1;
  }
  std::cout << "identity gate passed: full-coverage sample == exact\n";
  return 0;
}
