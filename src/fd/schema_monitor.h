// Continuous FD validation over an evolving instance (§1's "periodic or
// continuous checks of FD validity").
//
// The monitor owns a relation that receives inserts; every `check_interval`
// mutations (inserts and deletes both count) it re-validates the declared
// FDs and records which of them drifted from exact to violated — or, under
// deletions, recovered from violated back to exact. The designer then asks
// for repair suggestions on the drifted set.
//
// Checks are incremental: the monitor owns one query::DistinctEvaluator
// for its whole lifetime and materializes the |π_X| / |π_XY| groupings of
// every monitored FD once, at registration. Each check then advances those
// groupings over just the rows appended since the previous check — O(Δ)
// per check instead of the O(n) a from-scratch evaluator pays — and reads
// the violation state straight off the maintained group counts: an exact
// X→Y breaks exactly when a new tuple lands in an existing X-group under a
// new XY-key, which is the one event that moves |π_XY| without |π_X|.
//
// Deletions fold in at the same cost class: the evaluator keeps per-group
// live refcounts, so one deleted row is one decrement per maintained
// grouping, and the counts a check reads are live-row counts. Removing the
// last witness of a violating XY-pair is the one event that moves |π_XY|
// down to |π_X| — the violated→exact transition the recovery event
// reports. A compaction of the monitored relation resets the evaluator;
// the monitor detects it (Relation::compactions()) and re-materializes
// every monitored grouping so subsequent checks stay O(Δ).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "fd/repair_search.h"
#include "query/distinct.h"
#include "relation/relation.h"

namespace fdevolve::fd {

/// State of one declared FD at the latest check.
struct MonitoredFd {
  Fd fd;
  FdMeasures measures;
  bool was_exact_at_registration = false;
  bool violated = false;
  /// Tuple count at which the FD first became violated (0 if never).
  size_t first_violation_at = 0;
};

/// Direction of a drift transition.
enum class DriftKind : uint8_t {
  kViolated = 0,   ///< exact → violated (an insert broke the FD)
  kRecovered = 1,  ///< violated → exact (deletes removed every witness)
};

/// Event emitted when a monitored FD crosses the exact/violated boundary
/// in either direction. Under an append-only workload only kViolated is
/// reachable; kRecovered requires deletions.
struct DriftEvent {
  size_t fd_index = 0;
  /// Live tuples at the transition (== tuple_count() when no tombstones).
  size_t tuple_count = 0;
  FdMeasures measures;
  DriftKind kind = DriftKind::kViolated;

  /// True when the event came from a sampled monitor estimating from a
  /// strict subset of the live rows; the interval fields below then
  /// bracket the true confidence/goodness (see fd/sampled_estimate.h).
  /// Exact monitors — and sampled monitors whose reservoir covered every
  /// live row — leave all five fields at their defaults, so an exact
  /// event serializes identically whichever monitor emitted it (the
  /// sample_rate=1.0 bit-identity gate depends on this).
  bool approx = false;
  double confidence_lo = 1.0;
  double confidence_hi = 1.0;
  double goodness_lo = 0.0;
  double goodness_hi = 0.0;
};

/// Complete resumable state of a SchemaMonitor — everything a monitoring
/// process needs to stop and pick up mid-stream without replaying it.
///
/// The long-lived evaluator's groupings are deliberately *not* part of the
/// checkpoint: every grouping is a bit-identical function of the relation
/// (ids are dense first-appearance ids, append-stable under Advance), so
/// the restore constructor re-materializes them from the relation and
/// recovers the exact evaluator state the checkpointed monitor had. The
/// per-FD measures are carried anyway; when the checkpoint holds no
/// unchecked inserts (inserts_since_check == 0, so the stored measures
/// date from exactly the current watermark) they are cross-checked against
/// the re-materialized counters, turning a checkpoint/relation mismatch
/// (corruption, wrong file pairing) into a load-time error instead of a
/// silently wrong monitor.
struct MonitorCheckpoint {
  relation::Relation rel;            ///< owned relation at the watermark
  std::vector<MonitoredFd> fds;      ///< registered FDs + drift state
  std::vector<DriftEvent> drift_log;
  size_t check_interval = 1;
  size_t inserts_since_check = 0;
  size_t checks_run = 0;

  /// Streaming batch size of the driver that wrote the checkpoint (0 =
  /// unknown). Not monitor state — InsertBatch cadence depends on how the
  /// caller batches, so a resuming driver needs the original batch to
  /// reproduce the exact check sequence. Checkpoint() leaves it 0; the
  /// driver (e.g. the CLI) fills it in before serializing.
  size_t stream_batch_hint = 0;
};

/// A MonitorCheckpoint minus the relation — the resumable state of a
/// monitor that does *not* own its relation (external mode, see the
/// shared-relation SchemaMonitor constructors). The server persists the
/// shared catalog once and one MonitorState per monitor next to it,
/// instead of embedding a copy of the relation in every checkpoint.
struct MonitorState {
  std::vector<MonitoredFd> fds;
  std::vector<DriftEvent> drift_log;
  size_t check_interval = 1;
  size_t inserts_since_check = 0;
  size_t checks_run = 0;
  /// rel().version() at capture time. Restore refuses a relation whose
  /// watermark differs — the state would be paired with rows it never
  /// observed (or rows it observed would be missing).
  size_t watermark = 0;
};

/// Periodic validation loop.
///
/// Two ownership modes:
///   * **owning** — the monitor owns the relation and is fed through
///     Insert()/InsertBatch() (the CLI's streaming loop);
///   * **external** — the monitor observes a relation owned by someone
///     else (the server's shared catalog: the SQL engine appends, many
///     monitors watch). The caller appends through its own path and calls
///     Poll() afterwards; the monitor folds the appended suffix in and
///     runs a check when the interval elapses. The relation must outlive
///     the monitor, stay append-only, and be quiescent during every
///     monitor call (the server holds the table's write lock for both the
///     append and the Poll).
///
/// Not copyable or movable: the long-lived evaluator holds a reference to
/// the relation.
class SchemaMonitor {
 public:
  /// `check_interval`: re-validate after this many inserts (>=1).
  SchemaMonitor(relation::Relation initial, std::vector<Fd> fds,
                size_t check_interval = 1);

  /// External mode: monitors `*shared` without owning it (see class
  /// comment). Measures are computed at the relation's current watermark.
  /// The trailing `int` of both external-mode constructors is ignored; it
  /// is kept so that callers that still pass a thread count compile.
  SchemaMonitor(relation::Relation* shared, std::vector<Fd> fds,
                size_t check_interval = 1, int /*ignored*/ = 0);

  /// External-mode restore: rebinds a captured MonitorState to `*shared`
  /// and re-materializes the evaluator groupings, recovering the exact
  /// monitor the state was taken from (same bit-identity argument as the
  /// checkpoint constructor below). Throws std::invalid_argument if the
  /// relation's watermark differs from the state's, if an FD references
  /// attributes outside the schema, or if the carried measures disagree
  /// with recomputation while comparable (inserts_since_check == 0).
  SchemaMonitor(relation::Relation* shared, MonitorState state,
                int /*ignored*/ = 0);

  /// Resumes from a checkpoint: restores the relation, registered FDs,
  /// drift log, and interval position verbatim, and re-materializes the
  /// evaluator groupings from the relation. The resumed monitor emits the
  /// exact check sequence the checkpointed one would have — measures,
  /// drift events, and counters are bit-identical from here on.
  ///
  /// Throws std::invalid_argument if an FD references attributes outside
  /// the schema, or if the checkpointed measures disagree with the ones
  /// recomputed from the relation when they are comparable (no unchecked
  /// inserts pending — see MonitorCheckpoint).
  explicit SchemaMonitor(MonitorCheckpoint checkpoint);

  SchemaMonitor(const SchemaMonitor&) = delete;
  SchemaMonitor& operator=(const SchemaMonitor&) = delete;

  /// Snapshot of the complete resumable state (copies the relation).
  MonitorCheckpoint Checkpoint() const;

  /// Snapshot of the relation-free resumable state (external mode's
  /// checkpoint; pair it with the relation persisted elsewhere).
  MonitorState State() const;

  const relation::Relation& rel() const { return *rel_; }
  const std::vector<MonitoredFd>& fds() const { return monitored_; }
  const std::vector<DriftEvent>& drift_log() const { return drift_log_; }

  /// Optional callback invoked on each new drift event.
  void OnDrift(std::function<void(const DriftEvent&)> cb) {
    on_drift_ = std::move(cb);
  }

  /// Ingests one tuple; runs a check when the interval elapses.
  void Insert(const std::vector<relation::Value>& row);

  /// Ingests a batch of tuples (all-or-nothing validation, see
  /// relation::Relation::AppendRows); runs at most one check per batch,
  /// when the accumulated insert count crosses the interval.
  void InsertBatch(const std::vector<std::vector<relation::Value>>& rows);

  /// External-mode observation: folds mutations (appends AND deletes)
  /// applied to the relation since the monitor last looked into the
  /// mutation counter, and runs at most one check when the accumulated
  /// count crosses the interval — the same cadence InsertBatch gives a
  /// batch of that size. Counts through Relation::appends_ever() /
  /// deletes_ever(), so a compaction (which shrinks version()) cannot make
  /// the interval arithmetic underflow; a compaction also triggers
  /// re-materialization of the monitored groupings. A no-op when nothing
  /// changed.
  void Poll();

  /// Registers an additional FD on the live monitor (the server's DECLARE
  /// FD path): materializes its groupings and computes its measures at the
  /// current watermark. Throws std::invalid_argument if the FD references
  /// attributes outside the schema. Returns its index in fds().
  size_t AddFd(Fd fd);

  /// Forces a validation pass; returns indices of currently violated FDs.
  /// Cost is O(mutations since the previous check) — the pass advances
  /// the maintained groupings, folds pending deletions, and reads the
  /// live-group counters. Emits a kViolated event per exact→violated
  /// transition and a kRecovered event per violated→exact transition.
  std::vector<size_t> CheckNow();

  /// Suggests repairs for every currently violated FD. When the relation
  /// carries tombstones the search runs on a CompactedCopy() — the repair
  /// search scans physical rows and is tombstone-unaware by design.
  std::vector<RepairResult> SuggestRepairs(const RepairOptions& opts = {});

  /// Designer accepts a repair: the declared FD is replaced by the repaired
  /// one and its drift state resets. The repaired FD's groupings are
  /// materialized in the shared evaluator so subsequent checks stay O(Δ).
  /// Throws std::out_of_range on bad index.
  ///
  /// The superseded FD's groupings stay in the evaluator cache and keep
  /// being maintained — they cannot be evicted, because the repaired FD's
  /// grouping chains are typically derived from them (the repaired
  /// antecedent is a superset of the old one). Per-check cost is therefore
  /// O(Δ × tracked groupings), growing by a couple of chains per accepted
  /// repair; the designer loop accepts a handful of repairs over a
  /// monitor's lifetime, so this stays small in practice.
  void AcceptRepair(size_t fd_index, const Repair& repair);

  /// Number of validation passes run so far (instrumentation).
  size_t checks_run() const { return checks_run_; }

 private:
  /// Materializes the FD's antecedent and full-attribute groupings in the
  /// shared evaluator so Advance() maintains them from here on.
  void Track(const Fd& fd);

  /// Shared registration path of the fresh constructors.
  void RegisterFds(std::vector<Fd> fds);

  /// Shared validation/re-tracking path of the restore constructors:
  /// adopts the monitored FDs + drift log, re-materializes groupings, and
  /// cross-checks carried measures when comparable.
  void RestoreMonitored(std::vector<MonitoredFd> fds,
                        std::vector<DriftEvent> drift_log);

  /// Re-materializes every monitored grouping after an observed
  /// compaction (the evaluator dropped its caches); no-op otherwise.
  void ResyncAfterCompaction();

  /// Appends a drift event to the log and fires the callback.
  void PushEvent(size_t fd_index, DriftKind kind, const FdMeasures& measures);

  std::unique_ptr<relation::Relation> owned_;  ///< null in external mode
  relation::Relation* rel_;                    ///< owned_ or the shared one
  query::DistinctEvaluator eval_;  ///< long-lived; advanced, never rebuilt
  std::vector<MonitoredFd> monitored_;
  std::vector<DriftEvent> drift_log_;
  std::function<void(const DriftEvent&)> on_drift_;
  size_t check_interval_;
  size_t inserts_since_check_ = 0;  ///< mutations accumulated toward a check
  size_t checks_run_ = 0;
  size_t observed_version_ = 0;  ///< physical watermark last observed
  /// appends_ever() + deletes_ever() last observed — the cadence counter
  /// (monotone across compactions, unlike observed_version_).
  size_t observed_mutations_ = 0;
  size_t observed_compactions_ = 0;  ///< compactions() last observed
};

}  // namespace fdevolve::fd
