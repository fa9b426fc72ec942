#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

namespace fdbench {

double Quantile(const std::vector<double>& sorted, double q) {
  if (sorted.size() == 1) return sorted[0];
  double pos = q * static_cast<double>(sorted.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, sorted.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

Summary Summarize(std::vector<double> samples) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.min = samples.front();
  s.max = samples.back();
  s.q1 = Quantile(samples, 0.25);
  s.median = Quantile(samples, 0.5);
  s.q3 = Quantile(samples, 0.75);
  return s;
}

int64_t Tracer::Begin(const char* name, int64_t stmt) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.start_us = MicrosBetween(epoch_, Clock::now());
  span.parent = open_.empty() ? -1 : open_.back();
  span.stmt = stmt;
  spans_.push_back(std::move(span));
  int64_t id = static_cast<int64_t>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::End(int64_t id) {
  if (!enabled_ || id < 0) return;
  spans_[static_cast<size_t>(id)].end_us = MicrosBetween(epoch_, Clock::now());
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (const Span& s : spans_) {
    out << "{\"name\":" << JsonString(s.name) << ",\"start_us\":" << s.start_us
        << ",\"end_us\":" << s.end_us << ",\"parent\":" << s.parent
        << ",\"stmt\":" << s.stmt << "}\n";
  }
  out.flush();
  return static_cast<bool>(out);
}

void Result::Set(const std::string& name, const std::string& unit,
                 double value) {
  values_[name] = {unit, value};
}

void Result::Timing(const std::string& prefix, const std::string& unit,
                    const std::vector<double>& samples) {
  Summary s = Summarize(samples);
  summaries_[prefix] = s;
  summary_units_[prefix] = unit;
  if (s.n == 0) {
    missing_tails_.push_back(prefix + " (no samples)");
    return;
  }
  Set(prefix + "_p50_" + unit, unit, s.median);
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  if (TailSupported(s.n, 0.99)) {
    Set(prefix + "_p99_" + unit, unit, Quantile(sorted, 0.99));
  } else {
    missing_tails_.push_back(prefix + "_p99_" + unit + " (" +
                             std::to_string(s.n) + " samples, fewer than 10 "
                             "beyond p99)");
  }
  // Also the highest percentile the sample supports, when it is not p99.
  const std::pair<double, const char*> levels[] = {
      {0.999, "p99.9"}, {0.99, "p99"}, {0.98, "p98"},
      {0.95, "p95"},    {0.9, "p90"},  {0.75, "p75"}};
  for (const auto& [q, label] : levels) {
    if (!TailSupported(s.n, q)) continue;
    if (q != 0.99) {
      Set(prefix + "_" + label + "_" + unit, unit, Quantile(sorted, q));
    }
    break;
  }
}

void Result::Median(const std::string& name, const std::string& unit,
                    const std::vector<double>& samples) {
  Summary s = Summarize(samples);
  summaries_[name] = s;
  summary_units_[name] = unit;
  Set(name, unit, s.median);
}

void Result::Meta(const std::string& key, const std::string& value) {
  meta_[key] = JsonString(value);
}

void Result::Meta(const std::string& key, double value) {
  std::ostringstream os;
  os.precision(17);
  os << value;
  meta_[key] = os.str();
}

void Result::Gate(const std::string& name, bool ok, const std::string& detail) {
  gates_.push_back({name, ok, detail});
}

bool Result::gates_ok() const {
  if (gates_.empty()) return false;
  for (const auto& g : gates_) {
    if (!g.ok) return false;
  }
  return true;
}

double Result::Get(const std::string& name) const {
  auto it = values_.find(name);
  if (it == values_.end()) {
    throw std::invalid_argument("metric '" + name + "' was not recorded");
  }
  return it->second.value;
}

namespace {

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string Result::ReportLine() const {
  std::ostringstream os;
  os << "REPORT {\"meta\":{";
  bool first = true;
  for (const auto& [k, v] : meta_) {
    os << (first ? "" : ",") << JsonString(k) << ":" << v;
    first = false;
  }
  os << "},\"metrics\":{";
  first = true;
  for (const auto& [k, v] : values_) {
    os << (first ? "" : ",") << JsonString(k) << ":{\"value\":" << Num(v.value)
       << ",\"unit\":" << JsonString(v.unit) << "}";
    first = false;
  }
  os << "},\"summaries\":{";
  first = true;
  for (const auto& [k, s] : summaries_) {
    os << (first ? "" : ",") << JsonString(k)
       << ":{\"unit\":" << JsonString(summary_units_.at(k)) << ",\"n\":" << s.n
       << ",\"min\":" << Num(s.min) << ",\"q1\":" << Num(s.q1)
       << ",\"median\":" << Num(s.median) << ",\"q3\":" << Num(s.q3)
       << ",\"max\":" << Num(s.max) << "}";
    first = false;
  }
  os << "},\"tails_not_reported\":[";
  for (size_t i = 0; i < missing_tails_.size(); ++i) {
    os << (i ? "," : "") << JsonString(missing_tails_[i]);
  }
  os << "],\"gates\":{";
  for (size_t i = 0; i < gates_.size(); ++i) {
    os << (i ? "," : "") << JsonString(gates_[i].name) << ":"
       << (gates_[i].ok ? "true" : "false");
  }
  os << "},\"attempted\":" << attempted_ << ",\"failed\":" << failed_ << "}";
  return os.str();
}

std::string Result::ContractLine(const std::vector<std::string>& keep) const {
  std::ostringstream os;
  os << "{\"correct\":" << (ok() ? "true" : "false")
     << ",\"attempted\":" << std::max<uint64_t>(attempted_, 1)
     << ",\"failed\":" << failed_ << ",\"metrics\":{";
  for (size_t i = 0; i < keep.size(); ++i) {
    auto it = values_.find(keep[i]);
    if (it == values_.end()) {
      throw std::invalid_argument("contract metric '" + keep[i] +
                                  "' was not recorded");
    }
    os << (i ? "," : "") << JsonString(keep[i])
       << ":{\"value\":" << Num(it->second.value)
       << ",\"unit\":" << JsonString(it->second.unit) << "}";
  }
  os << "}}";
  return os.str();
}

void Result::PrintGates() const {
  for (const auto& g : gates_) {
    std::cerr << "gate " << g.name << ": " << (g.ok ? "pass" : "FAIL")
              << (g.detail.empty() ? "" : " (" + g.detail + ")") << "\n";
  }
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

}  // namespace fdbench
