#include "fd/schema_monitor.h"

#include <stdexcept>
#include <utility>

namespace fdevolve::fd {
namespace {

/// Field-exact equality, doubles compared bitwise-as-values: the restore
/// path re-measures through the same integer counts (or the same
/// estimation arithmetic over the restored reservoir), so an honest state
/// matches exactly.
bool SameMeasures(const FdMeasures& a, const FdMeasures& b) {
  return a.distinct_x == b.distinct_x && a.distinct_xy == b.distinct_xy &&
         a.distinct_y == b.distinct_y && a.confidence == b.confidence &&
         a.goodness == b.goodness && a.exact == b.exact;
}

void RequireInSchema(const relation::Relation& rel, const Fd& fd) {
  if (!fd.AllAttrs().SubsetOf(rel.schema().AllAttrs())) {
    throw std::invalid_argument(
        "SchemaMonitor: FD references attributes outside the relation "
        "schema");
  }
}

}  // namespace

SchemaMonitor::SchemaMonitor(relation::Relation* rel, std::vector<Fd> fds,
                             size_t check_interval, int /*ignored*/)
    : rel_(rel),
      check_interval_(check_interval == 0 ? 1 : check_interval),
      observed_mutations_(rel->appends_ever() + rel->deletes_ever()),
      observed_compactions_(rel->compactions()) {
  eval_.emplace(*rel_);
  for (auto& f : fds) AddFd(std::move(f));
}

SchemaMonitor::SchemaMonitor(relation::Relation* rel, std::vector<Fd> fds,
                             size_t check_interval, size_t capacity,
                             uint64_t seed)
    : rel_(rel),
      check_interval_(check_interval == 0 ? 1 : check_interval),
      observed_mutations_(rel->appends_ever() + rel->deletes_ever()),
      observed_compactions_(rel->compactions()) {
  sampler_.emplace(rel_, capacity, seed);
  for (auto& f : fds) AddFd(std::move(f));
}

SchemaMonitor::SchemaMonitor(relation::Relation* rel, MonitorState state,
                             int /*ignored*/)
    : rel_(rel),
      monitored_(std::move(state.fds)),
      drift_log_(std::move(state.drift_log)),
      check_interval_(state.check_interval == 0 ? 1 : state.check_interval),
      inserts_since_check_(state.inserts_since_check),
      checks_run_(state.checks_run),
      observed_mutations_(rel->appends_ever() + rel->deletes_ever()),
      observed_compactions_(rel->compactions()) {
  if (state.watermark != rel_->version()) {
    throw std::invalid_argument(
        "SchemaMonitor: monitor state was captured at watermark " +
        std::to_string(state.watermark) + " but the relation is at " +
        std::to_string(rel_->version()) +
        " (state paired with the wrong relation snapshot)");
  }
  if (state.reservoir) {
    // The sampler's restore constructor validates the reservoir against
    // the relation (watermark, compaction count, slot bounds).
    sampler_.emplace(rel_, *state.reservoir);
  } else {
    eval_.emplace(*rel_);
  }
  const std::vector<uint32_t> sample = LiveSample();
  estimates_.reserve(monitored_.size());
  for (const auto& m : monitored_) {
    RequireInSchema(*rel_, m.fd);
    // Re-materializing from the relation recovers the exact groupings the
    // captured evaluator held (ids are append-stable first-appearance ids
    // — see the bit-identity invariant in query/distinct.h); re-estimating
    // is a pure function of (relation, reservoir slots).
    Track(m.fd);
    SampledMeasures est = Measure(m.fd, sample);
    // Cross-check the carried measures only when the state holds no
    // unchecked mutations: then they were measured at exactly the current
    // watermark and a mismatch means a corrupt or mismatched state. With
    // pending mutations they are legitimately stale (they date from the
    // last check) and refresh at the next one.
    if (inserts_since_check_ == 0 && !SameMeasures(est.measures, m.measures)) {
      throw std::invalid_argument(
          "SchemaMonitor: checkpointed measures for " +
          m.fd.ToString(rel_->schema()) +
          " disagree with the relation (corrupt or mismatched checkpoint)");
    }
    estimates_.push_back(std::move(est));
  }
}

MonitorState SchemaMonitor::State() const {
  std::optional<query::ReservoirState> reservoir;
  if (sampler_) reservoir = sampler_->State();
  return MonitorState{monitored_,
                      drift_log_,
                      check_interval_,
                      inserts_since_check_,
                      checks_run_,
                      rel_->version(),
                      std::move(reservoir)};
}

void SchemaMonitor::Track(const Fd& fd) {
  if (!eval_) return;
  // Materializing |π_X| and |π_XY| gives Advance() a chain to maintain;
  // from then on each check costs one table lookup per appended tuple per
  // chain level. |π_Y| needs no grouping: a single consequent is answered
  // from the column dictionary in O(1), and a multi-attribute consequent
  // is worth maintaining too.
  eval_->GroupFor(fd.lhs());
  eval_->GroupFor(fd.AllAttrs());
  if (fd.rhs().Count() > 1) eval_->GroupFor(fd.rhs());
}

void SchemaMonitor::Observe() {
  if (sampler_) {
    sampler_->Sync();
    return;
  }
  if (rel_->compactions() == observed_compactions_) return;
  observed_compactions_ = rel_->compactions();
  // The evaluator drops every cached grouping when it observes the
  // compaction; re-materialize the monitored chains immediately so the
  // next checks go back to O(Δ) instead of degrading to count-only
  // recomputation.
  for (const auto& m : monitored_) Track(m.fd);
}

std::vector<uint32_t> SchemaMonitor::LiveSample() const {
  return sampler_ ? sampler_->LiveMembers() : std::vector<uint32_t>{};
}

SampledMeasures SchemaMonitor::Measure(const Fd& fd,
                                       const std::vector<uint32_t>& sample) {
  if (sampler_) {
    return EstimateMeasures(*rel_, sample, rel_->live_count(), fd);
  }
  // The evaluator auto-advances over the appended suffix (and folds any
  // pending deletions) on the first query; the counts are then O(1) reads
  // off the maintained groupings.
  SampledMeasures est;
  est.measures = ComputeMeasures(*eval_, fd);
  est.sample_rows = est.live_rows = rel_->live_count();
  est.witnessed_violation = !est.measures.exact;
  return est;
}

size_t SchemaMonitor::AddFd(Fd fd) {
  RequireInSchema(*rel_, fd);
  Observe();
  monitored_.emplace_back();
  estimates_.emplace_back();
  Declare(monitored_.size() - 1, std::move(fd));
  return monitored_.size() - 1;
}

void SchemaMonitor::AcceptRepair(size_t fd_index, const Repair& repair) {
  if (fd_index >= monitored_.size()) {
    throw std::out_of_range("SchemaMonitor: no FD at index " +
                            std::to_string(fd_index));
  }
  Observe();
  Declare(fd_index, repair.repaired);
}

void SchemaMonitor::Declare(size_t i, Fd fd) {
  Track(fd);
  SampledMeasures est = Measure(fd, LiveSample());
  MonitoredFd& m = monitored_[i];
  m.fd = std::move(fd);
  m.measures = est.measures;
  m.violated = est.witnessed_violation;
  m.was_exact_at_registration = !m.violated;
  m.first_violation_at = m.violated ? rel_->tuple_count() : 0;
  estimates_[i] = std::move(est);
}

void SchemaMonitor::Poll() {
  Observe();
  // Cadence counts through the lifetime counters, not version(): a delete
  // leaves version() unchanged and a compaction shrinks it, but both must
  // advance the monitor toward its next check without underflow.
  const size_t mutations = rel_->appends_ever() + rel_->deletes_ever();
  if (mutations == observed_mutations_) return;
  inserts_since_check_ += mutations - observed_mutations_;
  observed_mutations_ = mutations;
  if (inserts_since_check_ >= check_interval_) {
    inserts_since_check_ %= check_interval_;
    CheckNow();
  }
}

void SchemaMonitor::PushEvent(size_t fd_index, DriftKind kind,
                              const SampledMeasures& est) {
  DriftEvent ev;
  ev.fd_index = fd_index;
  ev.tuple_count = rel_->live_count();
  ev.measures = est.measures;
  ev.kind = kind;
  ev.approx = est.approx;
  ev.confidence_lo = est.confidence_lo;
  ev.confidence_hi = est.confidence_hi;
  ev.goodness_lo = est.goodness_lo;
  ev.goodness_hi = est.goodness_hi;
  drift_log_.push_back(ev);
  if (on_drift_) on_drift_(ev);
}

std::vector<size_t> SchemaMonitor::CheckNow() {
  Observe();
  ++checks_run_;
  const std::vector<uint32_t> sample = LiveSample();
  std::vector<size_t> violated;
  for (size_t i = 0; i < monitored_.size(); ++i) {
    MonitoredFd& m = monitored_[i];
    const bool was_violated = m.violated;
    SampledMeasures est = Measure(m.fd, sample);
    m.measures = est.measures;
    m.violated = est.witnessed_violation;
    if (m.violated) {
      violated.push_back(i);
      if (!was_violated) {
        m.first_violation_at = rel_->tuple_count();
        PushEvent(i, DriftKind::kViolated, est);
      }
    } else if (was_violated) {
      // Deletes removed the last violating witness pair (or, sampled, the
      // last witness left the reservoir): the FD is exact again.
      // Unreachable for an exact monitor under an append-only workload.
      m.first_violation_at = 0;
      PushEvent(i, DriftKind::kRecovered, est);
    }
    estimates_[i] = std::move(est);
    if (on_estimate_) on_estimate_(i, estimates_[i]);
  }
  return violated;
}

std::vector<RepairResult> SchemaMonitor::SuggestRepairs(
    const RepairOptions& opts) {
  std::vector<RepairResult> out;
  if (rel_->has_tombstones()) {
    // The repair search scans physical rows (tombstone-unaware by
    // design); hand it the live instance.
    const relation::Relation compacted = rel_->CompactedCopy();
    for (const auto& m : monitored_) {
      if (m.violated) out.push_back(Extend(compacted, m.fd, opts));
    }
    return out;
  }
  for (const auto& m : monitored_) {
    if (m.violated) {
      out.push_back(Extend(*rel_, m.fd, opts));
    }
  }
  return out;
}

}  // namespace fdevolve::fd
