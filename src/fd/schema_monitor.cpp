#include "fd/schema_monitor.h"

#include <stdexcept>
#include <utility>

namespace fdevolve::fd {
namespace {

/// Field-exact equality, doubles compared bitwise-as-values: the restore
/// path recomputes measures through the same integer counts and
/// MeasuresFromCounts arithmetic, so an honest checkpoint matches exactly.
bool SameMeasures(const FdMeasures& a, const FdMeasures& b) {
  return a.distinct_x == b.distinct_x && a.distinct_xy == b.distinct_xy &&
         a.distinct_y == b.distinct_y && a.confidence == b.confidence &&
         a.goodness == b.goodness && a.exact == b.exact;
}

}  // namespace

SchemaMonitor::SchemaMonitor(relation::Relation initial, std::vector<Fd> fds,
                             size_t check_interval)
    : owned_(std::make_unique<relation::Relation>(std::move(initial))),
      rel_(owned_.get()),
      eval_(*rel_),
      check_interval_(check_interval == 0 ? 1 : check_interval),
      observed_version_(rel_->version()),
      observed_mutations_(rel_->appends_ever() + rel_->deletes_ever()),
      observed_compactions_(rel_->compactions()) {
  RegisterFds(std::move(fds));
}

SchemaMonitor::SchemaMonitor(relation::Relation* shared, std::vector<Fd> fds,
                             size_t check_interval, int /*ignored*/)
    : rel_(shared),
      eval_(*rel_),
      check_interval_(check_interval == 0 ? 1 : check_interval),
      observed_version_(rel_->version()),
      observed_mutations_(rel_->appends_ever() + rel_->deletes_ever()),
      observed_compactions_(rel_->compactions()) {
  RegisterFds(std::move(fds));
}

SchemaMonitor::SchemaMonitor(relation::Relation* shared, MonitorState state,
                             int /*ignored*/)
    : rel_(shared),
      eval_(*rel_),
      check_interval_(state.check_interval == 0 ? 1 : state.check_interval),
      inserts_since_check_(state.inserts_since_check),
      checks_run_(state.checks_run),
      observed_version_(rel_->version()),
      observed_mutations_(rel_->appends_ever() + rel_->deletes_ever()),
      observed_compactions_(rel_->compactions()) {
  if (state.watermark != rel_->version()) {
    throw std::invalid_argument(
        "SchemaMonitor: monitor state was captured at watermark " +
        std::to_string(state.watermark) + " but the relation is at " +
        std::to_string(rel_->version()) +
        " (state paired with the wrong relation snapshot)");
  }
  RestoreMonitored(std::move(state.fds), std::move(state.drift_log));
}

SchemaMonitor::SchemaMonitor(MonitorCheckpoint checkpoint)
    : owned_(std::make_unique<relation::Relation>(std::move(checkpoint.rel))),
      rel_(owned_.get()),
      eval_(*rel_),
      check_interval_(checkpoint.check_interval == 0
                          ? 1
                          : checkpoint.check_interval),
      inserts_since_check_(checkpoint.inserts_since_check),
      checks_run_(checkpoint.checks_run),
      observed_version_(rel_->version()),
      observed_mutations_(rel_->appends_ever() + rel_->deletes_ever()),
      observed_compactions_(rel_->compactions()) {
  RestoreMonitored(std::move(checkpoint.fds), std::move(checkpoint.drift_log));
}

void SchemaMonitor::RegisterFds(std::vector<Fd> fds) {
  monitored_.reserve(fds.size());
  for (auto& f : fds) {
    AddFd(std::move(f));
  }
}

size_t SchemaMonitor::AddFd(Fd fd) {
  const relation::AttrSet all = rel_->schema().AllAttrs();
  if (!fd.AllAttrs().SubsetOf(all)) {
    throw std::invalid_argument(
        "SchemaMonitor: FD references attributes outside the relation "
        "schema");
  }
  MonitoredFd m;
  m.fd = std::move(fd);
  Track(m.fd);
  m.measures = ComputeMeasures(eval_, m.fd);
  m.was_exact_at_registration = m.measures.exact;
  m.violated = !m.measures.exact;
  if (m.violated) m.first_violation_at = rel_->tuple_count();
  monitored_.push_back(std::move(m));
  return monitored_.size() - 1;
}

void SchemaMonitor::RestoreMonitored(std::vector<MonitoredFd> fds,
                                     std::vector<DriftEvent> drift_log) {
  monitored_ = std::move(fds);
  drift_log_ = std::move(drift_log);
  const relation::AttrSet all = rel_->schema().AllAttrs();
  for (auto& m : monitored_) {
    if (!m.fd.AllAttrs().SubsetOf(all)) {
      throw std::invalid_argument(
          "SchemaMonitor: checkpointed FD references attributes outside the "
          "relation schema");
    }
    // Re-materializing from the relation recovers the exact groupings the
    // checkpointed evaluator held (ids are append-stable first-appearance
    // ids — see the bit-identity invariant in query/distinct.h).
    Track(m.fd);
    // Cross-check the carried measures only when the checkpoint holds no
    // unchecked inserts: with inserts_since_check == 0 the stored measures
    // were computed at exactly the current watermark, so a recomputation
    // must match bit for bit and a mismatch means a corrupt or mismatched
    // checkpoint. With pending inserts the stored measures are legitimately
    // stale (they date from the last check) and refresh at the next one.
    if (inserts_since_check_ == 0) {
      FdMeasures recomputed = ComputeMeasures(eval_, m.fd);
      if (!SameMeasures(recomputed, m.measures)) {
        throw std::invalid_argument(
            "SchemaMonitor: checkpointed measures for " +
            m.fd.ToString(rel_->schema()) +
            " disagree with the relation (corrupt or mismatched checkpoint)");
      }
    }
  }
}

MonitorCheckpoint SchemaMonitor::Checkpoint() const {
  return MonitorCheckpoint{*rel_,
                           monitored_,
                           drift_log_,
                           check_interval_,
                           inserts_since_check_,
                           checks_run_};
}

MonitorState SchemaMonitor::State() const {
  return MonitorState{monitored_,
                      drift_log_,
                      check_interval_,
                      inserts_since_check_,
                      checks_run_,
                      rel_->version()};
}

void SchemaMonitor::Track(const Fd& fd) {
  // Materializing |π_X| and |π_XY| gives Advance() a chain to maintain;
  // from then on each check costs one table lookup per appended tuple per
  // chain level. |π_Y| needs no grouping: a single consequent is answered
  // from the column dictionary in O(1), and a multi-attribute consequent
  // is worth maintaining too.
  eval_.GroupFor(fd.lhs());
  eval_.GroupFor(fd.AllAttrs());
  if (fd.rhs().Count() > 1) eval_.GroupFor(fd.rhs());
}

void SchemaMonitor::Insert(const std::vector<relation::Value>& row) {
  rel_->AppendRow(row);
  observed_version_ = rel_->version();
  ++observed_mutations_;
  if (++inserts_since_check_ >= check_interval_) {
    inserts_since_check_ = 0;
    CheckNow();
  }
}

void SchemaMonitor::InsertBatch(
    const std::vector<std::vector<relation::Value>>& rows) {
  if (rows.empty()) return;
  rel_->AppendRows(rows);
  observed_version_ = rel_->version();
  observed_mutations_ += rows.size();
  inserts_since_check_ += rows.size();
  if (inserts_since_check_ >= check_interval_) {
    inserts_since_check_ %= check_interval_;
    CheckNow();
  }
}

void SchemaMonitor::Poll() {
  ResyncAfterCompaction();
  // Cadence counts through the lifetime counters, not version(): a delete
  // leaves version() unchanged and a compaction shrinks it, but both must
  // advance the monitor toward its next check without underflow.
  const size_t mutations = rel_->appends_ever() + rel_->deletes_ever();
  if (mutations == observed_mutations_) return;
  const size_t delta = mutations - observed_mutations_;
  observed_mutations_ = mutations;
  observed_version_ = rel_->version();
  inserts_since_check_ += delta;
  if (inserts_since_check_ >= check_interval_) {
    inserts_since_check_ %= check_interval_;
    CheckNow();
  }
}

void SchemaMonitor::ResyncAfterCompaction() {
  if (rel_->compactions() == observed_compactions_) return;
  observed_compactions_ = rel_->compactions();
  observed_version_ = rel_->version();
  // The evaluator drops every cached grouping when it observes the
  // compaction; re-materialize the monitored chains immediately so the
  // next checks go back to O(Δ) instead of degrading to count-only
  // recomputation.
  for (const auto& m : monitored_) Track(m.fd);
}

void SchemaMonitor::PushEvent(size_t fd_index, DriftKind kind,
                              const FdMeasures& measures) {
  DriftEvent ev;
  ev.fd_index = fd_index;
  ev.tuple_count = rel_->live_count();
  ev.measures = measures;
  ev.kind = kind;
  drift_log_.push_back(ev);
  if (on_drift_) on_drift_(ev);
}

std::vector<size_t> SchemaMonitor::CheckNow() {
  ResyncAfterCompaction();
  ++checks_run_;
  std::vector<size_t> violated;
  // The evaluator auto-advances over the appended suffix (and folds any
  // pending deletions) on the first query; every monitored FD's counts
  // are then O(1) reads off the maintained groupings.
  for (size_t i = 0; i < monitored_.size(); ++i) {
    MonitoredFd& m = monitored_[i];
    bool was_violated = m.violated;
    m.measures = ComputeMeasures(eval_, m.fd);
    m.violated = !m.measures.exact;
    if (m.violated) {
      violated.push_back(i);
      if (!was_violated) {
        m.first_violation_at = rel_->tuple_count();
        PushEvent(i, DriftKind::kViolated, m.measures);
      }
    } else if (was_violated) {
      // Deletes removed the last violating witness pair: the FD is exact
      // again. Unreachable under an append-only workload.
      m.first_violation_at = 0;
      PushEvent(i, DriftKind::kRecovered, m.measures);
    }
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

void SchemaMonitor::AcceptRepair(size_t fd_index, const Repair& repair) {
  MonitoredFd& m = monitored_.at(fd_index);
  m.fd = repair.repaired;
  Track(m.fd);
  m.measures = ComputeMeasures(eval_, m.fd);
  m.violated = !m.measures.exact;
  m.was_exact_at_registration = m.measures.exact;
  m.first_violation_at = m.violated ? rel_->tuple_count() : 0;
}

}  // namespace fdevolve::fd
