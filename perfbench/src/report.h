// Measurement plumbing shared by the fdbench workloads: sample summaries,
// the in-memory span recorder of the traced run, and the result record
// that main() prints.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace fdbench {

using Clock = std::chrono::steady_clock;

inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}
inline double MillisSince(Clock::time_point a) {
  return std::chrono::duration<double, std::milli>(Clock::now() - a).count();
}
inline double SecondsSince(Clock::time_point a) {
  return std::chrono::duration<double>(Clock::now() - a).count();
}

/// Order statistics of one sample set. Quantiles interpolate linearly
/// between order statistics (numpy's default).
struct Summary {
  size_t n = 0;
  double min = 0, q1 = 0, median = 0, q3 = 0, max = 0;
};

Summary Summarize(std::vector<double> samples);

/// Quantile `q` in [0, 1] of ascending `sorted` (non-empty).
double Quantile(const std::vector<double>& sorted, double q);

/// True when at least ten samples lie beyond quantile `q` — the rule for
/// printing a tail percentile at all.
inline bool TailSupported(size_t n, double q) {
  return static_cast<double>(n) * (1.0 - q) >= 10.0;
}

/// One traced span: a layer boundary crossed from the benchmark's code.
struct Span {
  std::string name;
  double start_us = 0;  ///< since the tracer's epoch
  double end_us = 0;
  int64_t parent = -1;  ///< index of the enclosing span, -1 at top level
  int64_t stmt = -1;    ///< statement id, -1 when not tied to a statement
};

/// Keeps spans in memory (never formats on the hot path) and writes them
/// out as JSON lines when the run ends. Single-threaded: the traced
/// replays run on one thread.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  /// Opens a span; returns its index (or -1 when tracing is off).
  int64_t Begin(const char* name, int64_t stmt = -1);
  /// Closes span `id` (a no-op when tracing is off).
  void End(int64_t id);

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes one JSON object per span to `path`. Returns false on I/O error.
  bool WriteJsonLines(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int64_t> open_;  ///< stack of open span ids
};

/// RAII span: times the enclosing scope as one span of `tracer`.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name, int64_t stmt = -1)
      : tracer_(tracer), id_(tracer.Begin(name, stmt)) {}
  ~Scope() { tracer_.End(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  int64_t id_;
};

/// Everything one run reports: scalar metrics with units, timing
/// summaries, run metadata, and the correctness gates.
class Result {
 public:
  void Set(const std::string& name, const std::string& unit, double value);

  /// Records a timing sample set under `prefix`: emits `<prefix>_p50_<unit>`
  /// and, when ten samples lie beyond it, `<prefix>_p99_<unit>`; otherwise
  /// the report notes the missing tail instead of printing a value. The
  /// highest percentile with ten samples beyond it (p99.9 ... p75) is
  /// emitted too when it is not p99.
  void Timing(const std::string& prefix, const std::string& unit,
              const std::vector<double>& samples);

  /// Records a sample set whose median is the metric `name` itself (a
  /// per-run repeated measurement such as setup_s).
  void Median(const std::string& name, const std::string& unit,
              const std::vector<double>& samples);

  void Meta(const std::string& key, const std::string& value);
  void Meta(const std::string& key, double value);

  /// Records a correctness gate; any failed gate fails the run.
  void Gate(const std::string& name, bool ok, const std::string& detail = "");

  void CountOps(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  bool gates_ok() const;
  /// Every gate passed and no operation failed.
  bool ok() const { return gates_ok() && failed_ == 0; }
  bool Has(const std::string& name) const { return values_.count(name) != 0; }
  double Get(const std::string& name) const;

  /// Multi-line human/machine report (one `REPORT {...}` JSON line).
  std::string ReportLine() const;

  /// The contract line: {"correct","attempted","failed","metrics"} with
  /// exactly the metrics named in `keep` (each must have been Set).
  std::string ContractLine(const std::vector<std::string>& keep) const;

  void PrintGates() const;

 private:
  struct Value {
    std::string unit;
    double value = 0;
  };
  struct Gated {
    std::string name;
    bool ok = false;
    std::string detail;
  };
  std::map<std::string, Value> values_;
  std::map<std::string, Summary> summaries_;
  std::map<std::string, std::string> summary_units_;
  std::vector<std::string> missing_tails_;
  std::map<std::string, std::string> meta_;
  std::vector<Gated> gates_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// Peak resident set size of this process (VmHWM) in MiB.
double PeakRssMb();

/// JSON string literal for `s`.
std::string JsonString(const std::string& s);

}  // namespace fdbench
