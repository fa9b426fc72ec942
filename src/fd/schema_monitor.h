// Continuous FD validation over an evolving instance (§1's "periodic or
// continuous checks of FD validity").
//
// The monitor observes a relation that its caller owns and mutates; every
// `check_interval` mutations (inserts and deletes both count) it
// re-validates the declared FDs and records which of them drifted from
// exact to violated — or, under deletions, recovered from violated back
// to exact. The designer then asks for repair suggestions on the drifted
// set. Two measure sources, chosen by constructor:
//
//   * **exact** — one long-lived query::DistinctEvaluator materializes the
//     |π_X| / |π_XY| groupings of every monitored FD at registration; each
//     check advances them over just the rows mutated since the previous
//     check (O(Δ), per-group live refcounts absorb deletions) and reads
//     the violation state off the group counts: an exact X→Y breaks
//     exactly when a new tuple lands in an existing X-group under a new
//     XY-key. A compaction resets the evaluator; the monitor detects it
//     (Relation::compactions()) and re-materializes every grouping.
//   * **sampled** — measures are *estimated* under a fixed memory budget
//     from a deterministic reservoir sample (query::ReservoirSampler), with
//     an error interval (fd/sampled_estimate.h). "Violated" needs certain
//     evidence — a sampled witness pair (same X, different Y) — so a
//     sampled monitor never raises a false drift alarm, only possibly a
//     late one; it reports recovery when no sampled witness remains.
//
// Both sources feed one check path: each measure is an fd::SampledMeasures
// (the exact source fills in approx = false and sample_rows = live_rows),
// from which violation flags, drift events and estimates() derive. When a
// reservoir never evicts (capacity >= rows ever offered), the sample is
// the live row set at every check, estimation collapses to the exact
// MeasuresFromCounts arithmetic, and the sampled monitor's state minus its
// reservoir serializes byte-identically to an exact monitor's fed the same
// stream; the differential suites gate this.
//
// Determinism: everything a monitor reports is a pure function of the
// relation's mutation sequence, the points at which Poll() observes it,
// and (sampled) the seed — the sampler consumes a fixed number of draws
// per offered row and rebuilds deterministically at compactions.
// MonitorState captures the complete resumable state, reservoir included,
// so a restored monitor reports the identical remaining check, drift and
// estimate sequence.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "fd/repair_search.h"
#include "fd/sampled_estimate.h"
#include "query/distinct.h"
#include "query/reservoir.h"
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

/// Complete resumable state of a SchemaMonitor, minus the relation it
/// observes (persisted elsewhere — the server writes its catalog once and
/// one MonitorState per monitor next to it).
///
/// The exact source's evaluator groupings are deliberately *not* part of
/// the state: every grouping is a bit-identical function of the relation
/// (ids are dense first-appearance ids, append-stable under Advance), so
/// the restore constructor re-materializes them. The per-FD measures are
/// carried anyway; when the state holds no unchecked mutations
/// (inserts_since_check == 0, so the stored measures date from exactly
/// the current watermark) they are cross-checked against re-measurement,
/// turning a state/relation mismatch (corruption, wrong file pairing)
/// into a load-time error instead of a silently wrong monitor.
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
  /// The sampler's slots and raw generator state for a sampled monitor;
  /// empty for an exact one.
  std::optional<query::ReservoirState> reservoir;
};

/// Periodic validation loop over a relation owned by the caller (the
/// server's shared catalog, the CLI's one-table database). The caller
/// mutates the relation through its own path and calls Poll() afterwards;
/// the monitor folds the mutations in and runs a check when the interval
/// elapses. The relation must outlive the monitor and be quiescent during
/// every monitor call (the server holds the table's write lock for both
/// the mutation and the Poll).
///
/// Not copyable or movable: the measure source holds a reference to the
/// relation.
class SchemaMonitor {
 public:
  /// Exact monitor over `*rel`; measures are computed at the relation's
  /// current watermark. `check_interval`: re-validate after this many
  /// mutations (0 is promoted to 1). The trailing `int` is ignored; it is
  /// kept so that callers that still pass a thread count compile.
  SchemaMonitor(relation::Relation* rel, std::vector<Fd> fds,
                size_t check_interval = 1, int /*ignored*/ = 0);

  /// Sampled monitor over `*rel`: `capacity` is the reservoir slot budget
  /// (>= 1); `seed` drives every sampling decision.
  SchemaMonitor(relation::Relation* rel, std::vector<Fd> fds,
                size_t check_interval, size_t capacity, uint64_t seed);

  /// Restores a captured MonitorState against `*rel`, with the measure
  /// source it was captured with (a reservoir means sampled). Throws
  /// std::invalid_argument if the relation's watermark (or, sampled, its
  /// compaction count) differs from the state's, if an FD references
  /// attributes outside the schema, or if the carried measures disagree
  /// with re-measurement while comparable (inserts_since_check == 0).
  /// The trailing `int` is ignored, as above.
  SchemaMonitor(relation::Relation* rel, MonitorState state,
                int /*ignored*/ = 0);

  SchemaMonitor(const SchemaMonitor&) = delete;
  SchemaMonitor& operator=(const SchemaMonitor&) = delete;

  /// Snapshot of the complete resumable state (pair it with the relation
  /// persisted elsewhere).
  MonitorState State() const;

  const relation::Relation& rel() const { return *rel_; }
  const std::vector<MonitoredFd>& fds() const { return monitored_; }
  const std::vector<DriftEvent>& drift_log() const { return drift_log_; }

  /// Latest per-FD measure with its interval (parallel to fds();
  /// refreshed at every check, at registration and at restore). Exact
  /// monitors report point intervals over every live row.
  const std::vector<SampledMeasures>& estimates() const { return estimates_; }

  /// Optional callback invoked on each new drift event.
  void OnDrift(std::function<void(const DriftEvent&)> cb) {
    on_drift_ = std::move(cb);
  }

  /// Invoked once per monitored FD per check with the fresh estimate —
  /// the estimate *sequence* the determinism and resume suites assert on.
  void OnEstimate(std::function<void(size_t fd_index, const SampledMeasures&)> cb) {
    on_estimate_ = std::move(cb);
  }

  /// Folds mutations (appends AND deletes) applied to the relation since
  /// the monitor last looked into the mutation counter, and runs at most
  /// one check when the accumulated count crosses the interval. Counts
  /// through Relation::appends_ever() / deletes_ever(), so a compaction
  /// (which shrinks version()) cannot make the interval arithmetic
  /// underflow. A sampled monitor also folds the appended rows into its
  /// reservoir, so Poll must be called at the same statement boundaries
  /// on a replay as on the original run (the server calls it after every
  /// mutation statement) for the sampler's draw sequence to reproduce.
  void Poll();

  /// Registers an additional FD on the live monitor (the server's DECLARE
  /// FD path) and measures it at the current watermark. Throws
  /// std::invalid_argument if the FD references attributes outside the
  /// schema. Returns its index in fds().
  size_t AddFd(Fd fd);

  /// Forces a validation pass; returns indices of currently violated FDs
  /// (sampled: FDs with a sampled witness). Exact cost is O(mutations
  /// since the previous check). Emits a kViolated event per exact→violated
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
  size_t check_interval() const { return check_interval_; }

  /// Reservoir capacity and seed of a sampled monitor; capacity is 0 for
  /// an exact one.
  size_t sample_capacity() const { return sampler_ ? sampler_->capacity() : 0; }
  uint64_t sample_seed() const { return sampler_ ? sampler_->seed() : 0; }

 private:
  /// Materializes the FD's antecedent and full-attribute groupings in the
  /// exact source's evaluator so Advance() maintains them from here on.
  /// No-op for a sampled monitor.
  void Track(const Fd& fd);

  /// Brings the measure source up to the relation before a measurement:
  /// syncs the sampler, or re-materializes every monitored grouping after
  /// an observed compaction (the evaluator dropped its caches).
  void Observe();

  /// The sampler's live members (empty for an exact monitor).
  std::vector<uint32_t> LiveSample() const;

  /// Measures one FD through the monitor's source. `sample` is
  /// LiveSample(), hoisted so a check reads the reservoir once.
  SampledMeasures Measure(const Fd& fd, const std::vector<uint32_t>& sample);

  /// Installs `fd` at index `i` with the drift state of a fresh
  /// declaration, measured at the current watermark (AddFd, AcceptRepair;
  /// both Observe() first).
  void Declare(size_t i, Fd fd);

  /// Appends a drift event to the log and fires the callback.
  void PushEvent(size_t fd_index, DriftKind kind, const SampledMeasures& est);

  relation::Relation* rel_;
  /// Exactly one source is set: the long-lived evaluator (advanced, never
  /// rebuilt) or the reservoir sampler.
  std::optional<query::DistinctEvaluator> eval_;
  std::optional<query::ReservoirSampler> sampler_;
  /// The sampled source's grouping buffers, kept across checks so that
  /// GroupRows over a wide column grows its partition marks once.
  query::RefineScratch scratch_;
  std::vector<MonitoredFd> monitored_;
  std::vector<SampledMeasures> estimates_;
  std::vector<DriftEvent> drift_log_;
  std::function<void(const DriftEvent&)> on_drift_;
  std::function<void(size_t, const SampledMeasures&)> on_estimate_;
  size_t check_interval_;
  size_t inserts_since_check_ = 0;  ///< mutations accumulated toward a check
  size_t checks_run_ = 0;
  /// appends_ever() + deletes_ever() last observed — the cadence counter
  /// (monotone across compactions, unlike version()).
  size_t observed_mutations_ = 0;
  size_t observed_compactions_ = 0;  ///< compactions() last observed
};

}  // namespace fdevolve::fd
