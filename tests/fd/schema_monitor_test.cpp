#include "fd/schema_monitor.h"

#include <gtest/gtest.h>

#include <optional>

namespace fdevolve::fd {
namespace {

using relation::AttrSet;
using relation::DataType;
using relation::Relation;
using relation::RelationBuilder;
using relation::Schema;
using relation::Value;

Schema MonitorSchema() {
  return Schema({{"city", DataType::kString},
                 {"zip", DataType::kString},
                 {"state", DataType::kString}});
}

Relation CleanInstance() {
  return RelationBuilder("addr", MonitorSchema())
      .Row({"NY", "10001", "NY"})
      .Row({"Boston", "02101", "MA"})
      .Build();
}

/// Appends one row behind the monitor's back, then lets it observe.
void Append(Relation& rel, SchemaMonitor& mon,
            const std::vector<Value>& row) {
  rel.AppendRow(row);
  mon.Poll();
}

TEST(SchemaMonitorTest, ExactAtRegistration) {
  Relation rel = CleanInstance();
  SchemaMonitor mon(&rel, {Fd::Parse("zip -> state", MonitorSchema())});
  ASSERT_EQ(mon.fds().size(), 1u);
  EXPECT_TRUE(mon.fds()[0].was_exact_at_registration);
  EXPECT_FALSE(mon.fds()[0].violated);
}

TEST(SchemaMonitorTest, DriftDetectedOnInsert) {
  Relation rel = CleanInstance();
  SchemaMonitor mon(&rel, {Fd::Parse("zip -> state", MonitorSchema())});
  Append(rel, mon, {"Hoboken", "10001", "NJ"});  // 10001 -> {NY, NJ}
  EXPECT_TRUE(mon.fds()[0].violated);
  ASSERT_EQ(mon.drift_log().size(), 1u);
  EXPECT_EQ(mon.drift_log()[0].fd_index, 0u);
  EXPECT_EQ(mon.drift_log()[0].tuple_count, 3u);
}

TEST(SchemaMonitorTest, DriftCallbackFires) {
  Relation rel = CleanInstance();
  SchemaMonitor mon(&rel, {Fd::Parse("zip -> state", MonitorSchema())});
  int fired = 0;
  mon.OnDrift([&](const DriftEvent& ev) {
    ++fired;
    EXPECT_FALSE(ev.measures.exact);
  });
  Append(rel, mon, {"Hoboken", "10001", "NJ"});
  EXPECT_EQ(fired, 1);
  // Further violating inserts do not re-fire for an already-violated FD.
  Append(rel, mon, {"Newark", "10001", "PA"});
  EXPECT_EQ(fired, 1);
}

TEST(SchemaMonitorTest, CheckIntervalBatchesValidation) {
  Relation rel = CleanInstance();
  SchemaMonitor mon(&rel, {Fd::Parse("zip -> state", MonitorSchema())},
                    /*check_interval=*/3);
  Append(rel, mon, {"Hoboken", "10001", "NJ"});  // violates, not checked yet
  EXPECT_FALSE(mon.fds()[0].violated);
  Append(rel, mon, {"X", "90001", "CA"});
  EXPECT_FALSE(mon.fds()[0].violated);
  Append(rel, mon, {"Y", "90002", "CA"});  // third insert triggers the check
  EXPECT_TRUE(mon.fds()[0].violated);
}

TEST(SchemaMonitorTest, SuggestRepairsCoversViolatedOnly) {
  Relation rel = CleanInstance();
  SchemaMonitor mon(&rel, {Fd::Parse("zip -> state", MonitorSchema()),
                           Fd::Parse("zip -> city", MonitorSchema())});
  Append(rel, mon, {"Hoboken", "10001", "NJ"});  // breaks both FDs
  auto suggestions = mon.SuggestRepairs();
  EXPECT_EQ(suggestions.size(), 2u);
}

TEST(SchemaMonitorTest, AcceptRepairReplacesFdAndClearsViolation) {
  Relation rel = CleanInstance();
  SchemaMonitor mon(&rel, {Fd::Parse("zip -> state", MonitorSchema())});
  Append(rel, mon, {"Hoboken", "10001", "NJ"});
  RepairOptions opts;
  opts.mode = SearchMode::kFirstRepair;
  auto suggestions = mon.SuggestRepairs(opts);
  ASSERT_EQ(suggestions.size(), 1u);
  ASSERT_TRUE(suggestions[0].found());
  mon.AcceptRepair(0, suggestions[0].repairs[0]);
  EXPECT_FALSE(mon.fds()[0].violated);
  EXPECT_NE(mon.fds()[0].fd, Fd::Parse("zip -> state", MonitorSchema()));
}

TEST(SchemaMonitorTest, AcceptRepairBadIndexThrows) {
  Relation rel = CleanInstance();
  SchemaMonitor mon(&rel, {Fd::Parse("zip -> state", MonitorSchema())});
  Repair r;
  r.repaired = Fd::Parse("city -> state", MonitorSchema());
  EXPECT_THROW(mon.AcceptRepair(5, r), std::out_of_range);
}

TEST(SchemaMonitorTest, ViolatedAtRegistrationIsRecorded) {
  Relation dirty = RelationBuilder("addr", MonitorSchema())
                       .Row({"NY", "10001", "NY"})
                       .Row({"Hoboken", "10001", "NJ"})
                       .Build();
  SchemaMonitor mon(&dirty, {Fd::Parse("zip -> state", MonitorSchema())});
  EXPECT_TRUE(mon.fds()[0].violated);
  EXPECT_FALSE(mon.fds()[0].was_exact_at_registration);
}

TEST(SchemaMonitorTest, CheckNowReturnsViolatedIndices) {
  Relation rel = CleanInstance();
  SchemaMonitor mon(&rel,
                    {Fd::Parse("zip -> state", MonitorSchema()),
                     Fd::Parse("city -> zip", MonitorSchema())},
                    /*check_interval=*/1000);  // manual checks only
  Append(rel, mon, {"Hoboken", "10001", "NJ"});
  auto violated = mon.CheckNow();
  ASSERT_EQ(violated.size(), 1u);
  EXPECT_EQ(violated[0], 0u);
}

TEST(SchemaMonitorTest, PollRunsOneCheckPerAppendedBatch) {
  Relation rel = CleanInstance();
  SchemaMonitor mon(&rel, {Fd::Parse("zip -> state", MonitorSchema())},
                    /*check_interval=*/3);
  // 4 appends folded by one Poll cross the interval once: exactly one
  // check, after the whole batch, sees the violating row.
  const size_t before = mon.checks_run();
  rel.AppendRows({{"Hoboken", "10001", "NJ"},
                  {"X", "90001", "CA"},
                  {"Y", "90002", "CA"},
                  {"Z", "90003", "CA"}});
  mon.Poll();
  EXPECT_EQ(mon.checks_run(), before + 1);
  EXPECT_TRUE(mon.fds()[0].violated);
  ASSERT_EQ(mon.drift_log().size(), 1u);
  EXPECT_EQ(mon.drift_log()[0].tuple_count, 6u);
}

TEST(SchemaMonitorTest, PollBelowIntervalDefersCheck) {
  Relation rel = CleanInstance();
  SchemaMonitor mon(&rel, {Fd::Parse("zip -> state", MonitorSchema())},
                    /*check_interval=*/10);
  rel.AppendRows({{"Hoboken", "10001", "NJ"}});
  mon.Poll();
  EXPECT_FALSE(mon.fds()[0].violated);  // not checked yet
  mon.Poll();  // nothing appended: no check, no state change
  EXPECT_FALSE(mon.fds()[0].violated);
  auto violated = mon.CheckNow();
  ASSERT_EQ(violated.size(), 1u);
}

TEST(SchemaMonitorTest, BatchValidationIsAllOrNothing) {
  Relation rel = CleanInstance();
  SchemaMonitor mon(&rel, {Fd::Parse("zip -> state", MonitorSchema())});
  // Second row has a type mismatch: the whole batch must be rejected, so
  // the monitor observes no mutation at all.
  EXPECT_THROW(rel.AppendRows({{"Hoboken", "10001", "NJ"},
                               {"X", relation::Value(int64_t{5}), "CA"}}),
               std::invalid_argument);
  mon.Poll();
  EXPECT_EQ(mon.rel().tuple_count(), 2u);
  EXPECT_EQ(mon.checks_run(), 0u);
  EXPECT_FALSE(mon.fds()[0].violated);
}

TEST(SchemaMonitorTest, IncrementalChecksMatchScratchRecomputation) {
  // Drive a stream through the monitor; its incrementally maintained
  // flags and counts must agree with from-scratch measures at every check.
  Relation rel = CleanInstance();
  SchemaMonitor mon(&rel, {Fd::Parse("zip -> state", MonitorSchema()),
                           Fd::Parse("zip -> city", MonitorSchema())});
  const std::vector<std::vector<Value>> stream = {
      {"NY", "10001", "NY"},      // duplicate zip, same state
      {"Albany", "12201", "NY"},  // new zip
      {"Hoboken", "10001", "NJ"}, // drift: 10001 -> {NY, NJ}
      {"Newark", "07101", "NJ"},
  };
  for (const auto& row : stream) {
    Append(rel, mon, row);
    for (size_t i = 0; i < mon.fds().size(); ++i) {
      FdMeasures expect = ComputeMeasures(rel, mon.fds()[i].fd);
      EXPECT_EQ(mon.fds()[i].measures.distinct_x, expect.distinct_x);
      EXPECT_EQ(mon.fds()[i].measures.distinct_xy, expect.distinct_xy);
      EXPECT_EQ(mon.fds()[i].violated, !expect.exact);
    }
  }
}

TEST(SchemaMonitorTest, AcceptRepairKeepsSubsequentChecksIncremental) {
  Relation rel = CleanInstance();
  SchemaMonitor mon(&rel, {Fd::Parse("zip -> state", MonitorSchema())});
  Append(rel, mon, {"Hoboken", "10001", "NJ"});
  auto suggestions = mon.SuggestRepairs();
  ASSERT_FALSE(suggestions.empty());
  ASSERT_TRUE(suggestions[0].found());
  mon.AcceptRepair(0, suggestions[0].repairs[0]);
  EXPECT_FALSE(mon.fds()[0].violated);
  // The repaired FD is tracked in the same evaluator: further inserts keep
  // validating it (and agree with a scratch computation).
  Append(rel, mon, {"Quincy", "02169", "MA"});
  FdMeasures expect = ComputeMeasures(mon.rel(), mon.fds()[0].fd);
  EXPECT_EQ(mon.fds()[0].violated, !expect.exact);
  EXPECT_EQ(mon.fds()[0].measures.distinct_x, expect.distinct_x);
  EXPECT_EQ(mon.fds()[0].measures.distinct_xy, expect.distinct_xy);
}

TEST(SchemaMonitorTest, CheckpointRestoreContinuesCadence) {
  // Interrupt mid-interval: the restored monitor must keep the interval
  // phase (inserts_since_check) so the next check fires at the same insert
  // the uninterrupted monitor would check at.
  Relation rel_a = CleanInstance();
  Relation rel_b = CleanInstance();
  SchemaMonitor a(&rel_a, {Fd::Parse("zip -> state", MonitorSchema())},
                  /*check_interval=*/3);
  std::optional<SchemaMonitor> b;
  b.emplace(&rel_b, std::vector<Fd>{Fd::Parse("zip -> state", MonitorSchema())},
            /*check_interval=*/3);
  auto both = [&](const std::vector<Value>& row) {
    Append(rel_a, a, row);
    rel_b.AppendRow(row);
    b->Poll();
  };
  both({"Hoboken", "07030", "NJ"});
  both({"Hoboken", "10001", "NJ"});  // drift, detected at next check

  MonitorState state = b->State();
  b.reset();
  SchemaMonitor resumed(&rel_b, std::move(state));
  EXPECT_EQ(resumed.checks_run(), a.checks_run());
  EXPECT_EQ(resumed.rel().tuple_count(), a.rel().tuple_count());
  ASSERT_EQ(resumed.fds().size(), 1u);
  EXPECT_FALSE(resumed.fds()[0].violated);  // not yet checked

  Append(rel_a, a, {"Albany", "12207", "NY"});  // third insert: check
  Append(rel_b, resumed, {"Albany", "12207", "NY"});
  EXPECT_EQ(resumed.checks_run(), a.checks_run());
  EXPECT_TRUE(resumed.fds()[0].violated);
  ASSERT_EQ(resumed.drift_log().size(), 1u);
  EXPECT_EQ(resumed.drift_log()[0].tuple_count, a.drift_log()[0].tuple_count);
  EXPECT_EQ(resumed.fds()[0].measures.confidence,
            a.fds()[0].measures.confidence);
}

TEST(SchemaMonitorTest, CheckpointCarriesAcceptedRepair) {
  Relation rel = CleanInstance();
  std::optional<SchemaMonitor> mon;
  mon.emplace(&rel,
              std::vector<Fd>{Fd::Parse("zip -> state", MonitorSchema())});
  rel.AppendRow({"Hoboken", "10001", "NJ"});
  mon->Poll();
  ASSERT_TRUE(mon->fds()[0].violated);
  Repair r;
  r.repaired = Fd::Parse("zip, city -> state", MonitorSchema());
  mon->AcceptRepair(0, r);
  ASSERT_FALSE(mon->fds()[0].violated);

  MonitorState state = mon->State();
  mon.reset();
  SchemaMonitor resumed(&rel, std::move(state));
  ASSERT_EQ(resumed.fds().size(), 1u);
  EXPECT_EQ(resumed.fds()[0].fd, r.repaired);
  EXPECT_FALSE(resumed.fds()[0].violated);
  // The repaired FD stays incrementally tracked across the resume.
  // (zip, city) was seen with NJ:
  Append(rel, resumed, {"Hoboken", "10001", "NY"});
  EXPECT_TRUE(resumed.fds()[0].violated);
}

TEST(SchemaMonitorTest, RestoreRejectsFdOutsideSchema) {
  Relation rel = CleanInstance();
  SchemaMonitor mon(&rel, {Fd::Parse("zip -> state", MonitorSchema())});
  MonitorState state = mon.State();
  state.fds[0].fd = Fd(AttrSet::Of({7}), AttrSet::Of({9}));
  EXPECT_THROW(SchemaMonitor(&rel, std::move(state)), std::invalid_argument);
}

TEST(SchemaMonitorTest, RestoreRejectsTamperedMeasures) {
  Relation rel = CleanInstance();
  SchemaMonitor mon(&rel, {Fd::Parse("zip -> state", MonitorSchema())});
  MonitorState state = mon.State();
  ASSERT_EQ(state.inserts_since_check, 0u);  // measures are current
  state.fds[0].measures.distinct_xy += 1;
  EXPECT_THROW(SchemaMonitor(&rel, std::move(state)), std::invalid_argument);
}

TEST(SchemaMonitorTest, ExternalModePollFoldsWholeAppendedSuffix) {
  Relation shared = CleanInstance();
  SchemaMonitor mon(&shared, {Fd::Parse("zip -> state", MonitorSchema())},
                    /*check_interval=*/3);
  // Three rows appended one by one behind the monitor's back, one Poll:
  // exactly one check, the cadence of a single three-row append.
  shared.AppendRow({"Hoboken", "07030", "NJ"});
  shared.AppendRow({"Weehawken", "10001", "NJ"});
  shared.AppendRow({"Camden", "08101", "NJ"});
  EXPECT_EQ(mon.checks_run(), 0u);
  mon.Poll();
  EXPECT_EQ(mon.checks_run(), 1u);
  EXPECT_TRUE(mon.fds()[0].violated);
  mon.Poll();  // nothing new appended: no-op
  EXPECT_EQ(mon.checks_run(), 1u);
}

TEST(SchemaMonitorTest, AddFdRegistersOnLiveMonitor) {
  Relation shared = CleanInstance();
  SchemaMonitor mon(&shared, std::vector<Fd>{}, /*check_interval=*/1);
  EXPECT_TRUE(mon.fds().empty());
  size_t idx = mon.AddFd(Fd::Parse("zip -> state", MonitorSchema()));
  EXPECT_EQ(idx, 0u);
  ASSERT_EQ(mon.fds().size(), 1u);
  EXPECT_TRUE(mon.fds()[0].measures.exact);
  Append(shared, mon, {"Hoboken", "10001", "NJ"});
  EXPECT_TRUE(mon.fds()[0].violated);
  // Out-of-schema FDs are rejected up front.
  AttrSet bad;
  bad.Add(7);
  AttrSet rhs;
  rhs.Add(0);
  EXPECT_THROW(mon.AddFd(Fd(bad, rhs)), std::invalid_argument);
}

TEST(SchemaMonitorTest, MonitorStateRoundTripContinuesCadence) {
  Relation shared = CleanInstance();
  SchemaMonitor mon(&shared, {Fd::Parse("zip -> state", MonitorSchema())},
                    /*check_interval=*/3);
  // Counter at 1, below the interval: no check yet.
  Append(shared, mon, {"Hoboken", "07030", "NJ"});
  EXPECT_EQ(mon.checks_run(), 0u);

  MonitorState state = mon.State();
  EXPECT_EQ(state.watermark, shared.version());
  SchemaMonitor restored(&shared, state);
  shared.AppendRow({"Weehawken", "10001", "NJ"});
  Append(shared, mon, {"Camden", "08101", "NJ"});
  restored.Poll();
  EXPECT_EQ(restored.checks_run(), mon.checks_run());
  ASSERT_EQ(restored.drift_log().size(), mon.drift_log().size());
  ASSERT_EQ(restored.drift_log().size(), 1u);
  // 2 seed rows + 3 appends; the EVERY-3 check fires on the third append.
  EXPECT_EQ(restored.drift_log()[0].tuple_count, 5u);
}

TEST(SchemaMonitorTest, DeletionRecoversViolatedFd) {
  Relation shared = CleanInstance();
  SchemaMonitor mon(&shared, {Fd::Parse("zip -> state", MonitorSchema())});
  Append(shared, mon, {"Hoboken", "10001", "NJ"});  // 10001 -> {NY, NJ}
  ASSERT_TRUE(mon.fds()[0].violated);
  ASSERT_EQ(mon.drift_log().size(), 1u);
  EXPECT_EQ(mon.drift_log()[0].kind, DriftKind::kViolated);

  shared.DeleteRow(2);  // remove the violating witness
  mon.Poll();
  EXPECT_FALSE(mon.fds()[0].violated);
  ASSERT_EQ(mon.drift_log().size(), 2u);
  EXPECT_EQ(mon.drift_log()[1].kind, DriftKind::kRecovered);
  EXPECT_TRUE(mon.drift_log()[1].measures.exact);
  // tuple_count on the event is the LIVE count, not the watermark.
  EXPECT_EQ(mon.drift_log()[1].tuple_count, 2u);
}

TEST(SchemaMonitorTest, RecoveryCallbackFiresOnce) {
  Relation shared = CleanInstance();
  SchemaMonitor mon(&shared, {Fd::Parse("zip -> state", MonitorSchema())});
  std::vector<DriftKind> kinds;
  mon.OnDrift([&](const DriftEvent& ev) { kinds.push_back(ev.kind); });
  Append(shared, mon, {"Hoboken", "10001", "NJ"});
  shared.DeleteRow(2);
  mon.Poll();
  Append(shared, mon, {"Camden", "08101", "NJ"});  // clean append: no event
  ASSERT_EQ(kinds.size(), 2u);
  EXPECT_EQ(kinds[0], DriftKind::kViolated);
  EXPECT_EQ(kinds[1], DriftKind::kRecovered);
}

TEST(SchemaMonitorTest, ReViolationAfterRecoveryFiresAgain) {
  Relation shared = CleanInstance();
  SchemaMonitor mon(&shared, {Fd::Parse("zip -> state", MonitorSchema())});
  Append(shared, mon, {"Hoboken", "10001", "NJ"});
  shared.DeleteRow(2);
  mon.Poll();
  Append(shared, mon, {"Weehawken", "10001", "NJ"});  // violate again
  ASSERT_EQ(mon.drift_log().size(), 3u);
  EXPECT_EQ(mon.drift_log()[2].kind, DriftKind::kViolated);
  EXPECT_TRUE(mon.fds()[0].violated);
}

TEST(SchemaMonitorTest, MeasuresTrackLiveRowsUnderDeletion) {
  Relation shared = CleanInstance();
  SchemaMonitor mon(&shared, {Fd::Parse("zip -> state", MonitorSchema())});
  shared.AppendRow({"Hoboken", "10001", "NJ"});
  shared.DeleteRow(0);
  mon.Poll();
  // Ground truth: measures over the compacted logical instance.
  FdMeasures expect =
      ComputeMeasures(shared.CompactedCopy(), mon.fds()[0].fd);
  EXPECT_EQ(mon.fds()[0].measures.distinct_x, expect.distinct_x);
  EXPECT_EQ(mon.fds()[0].measures.distinct_xy, expect.distinct_xy);
  EXPECT_EQ(mon.fds()[0].measures.confidence, expect.confidence);
  EXPECT_EQ(mon.fds()[0].violated, !expect.exact);
}

TEST(SchemaMonitorTest, PollResyncsAfterCompaction) {
  Relation shared = CleanInstance();
  SchemaMonitor mon(&shared, {Fd::Parse("zip -> state", MonitorSchema())});
  Append(shared, mon, {"Hoboken", "10001", "NJ"});
  ASSERT_TRUE(mon.fds()[0].violated);
  shared.DeleteRow(2);
  shared.Compact();  // row ids and codes reassigned wholesale
  mon.Poll();
  EXPECT_FALSE(mon.fds()[0].violated);
  // Still incremental afterwards: appends against the compacted relation
  // keep validating.
  Append(shared, mon, {"Weehawken", "10001", "NJ"});
  EXPECT_TRUE(mon.fds()[0].violated);
  FdMeasures expect = ComputeMeasures(shared, mon.fds()[0].fd);
  EXPECT_EQ(mon.fds()[0].measures.distinct_x, expect.distinct_x);
  EXPECT_EQ(mon.fds()[0].measures.distinct_xy, expect.distinct_xy);
}

TEST(SchemaMonitorTest, SuggestRepairsWorksOnTombstonedRelation) {
  Relation shared = CleanInstance();
  SchemaMonitor mon(&shared, {Fd::Parse("zip -> state", MonitorSchema())});
  shared.AppendRow({"Hoboken", "10001", "NJ"});
  shared.DeleteRow(1);  // unrelated tombstone stays in place
  mon.Poll();
  ASSERT_TRUE(mon.fds()[0].violated);
  // The repair search itself is tombstone-unaware; the monitor must hand
  // it a compacted view instead of tripping the hard-error guard.
  auto suggestions = mon.SuggestRepairs();
  ASSERT_EQ(suggestions.size(), 1u);
  EXPECT_TRUE(suggestions[0].found());
}

TEST(SchemaMonitorTest, MonitorStateRestoreRejectsWatermarkMismatch) {
  Relation shared = CleanInstance();
  SchemaMonitor mon(&shared, {Fd::Parse("zip -> state", MonitorSchema())});
  MonitorState state = mon.State();
  shared.AppendRow({"Hoboken", "07030", "NJ"});  // relation moved on
  EXPECT_THROW(SchemaMonitor(&shared, std::move(state)),
               std::invalid_argument);
}

TEST(SchemaMonitorTest, DeleteThenReinsertIdenticalTupleReViolates) {
  // The reinserted tuple is byte-identical to the deleted witness, but it
  // is a NEW physical row: recovery and re-violation are two distinct
  // boundary crossings and the log must record both.
  Relation shared = CleanInstance();
  SchemaMonitor mon(&shared, {Fd::Parse("zip -> state", MonitorSchema())});
  Append(shared, mon, {"Hoboken", "10001", "NJ"});  // 10001 -> {NY, NJ}
  ASSERT_TRUE(mon.fds()[0].violated);
  shared.DeleteRow(2);
  mon.Poll();
  ASSERT_FALSE(mon.fds()[0].violated);
  Append(shared, mon, {"Hoboken", "10001", "NJ"});  // same values, new row
  EXPECT_TRUE(mon.fds()[0].violated);
  ASSERT_EQ(mon.drift_log().size(), 3u);
  EXPECT_EQ(mon.drift_log()[0].kind, DriftKind::kViolated);
  EXPECT_EQ(mon.drift_log()[1].kind, DriftKind::kRecovered);
  EXPECT_EQ(mon.drift_log()[2].kind, DriftKind::kViolated);
  // Measures after the round trip equal the pre-delete instance's.
  FdMeasures expect = ComputeMeasures(
      RelationBuilder("addr", MonitorSchema())
          .Row({"NY", "10001", "NY"})
          .Row({"Boston", "02101", "MA"})
          .Row({"Hoboken", "10001", "NJ"})
          .Build(),
      mon.fds()[0].fd);
  EXPECT_EQ(mon.fds()[0].measures.distinct_x, expect.distinct_x);
  EXPECT_EQ(mon.fds()[0].measures.distinct_xy, expect.distinct_xy);
  EXPECT_EQ(mon.fds()[0].measures.confidence, expect.confidence);
}

TEST(SchemaMonitorTest, SelfUpdateIsDriftNeutral) {
  // The SQL engine decomposes UPDATE into delete + append; rewriting a
  // row to its own values must not move any measure or emit any event,
  // whether the FD is currently exact or violated.
  Relation shared = CleanInstance();
  SchemaMonitor mon(&shared, {Fd::Parse("zip -> state", MonitorSchema())});
  auto self_update = [&](size_t t) {
    std::vector<Value> row;
    for (int a = 0; a < shared.attr_count(); ++a) {
      row.push_back(shared.Get(t, a));
    }
    shared.DeleteRow(t);
    Append(shared, mon, row);
  };
  const FdMeasures clean = mon.fds()[0].measures;
  self_update(0);  // exact regime
  EXPECT_FALSE(mon.fds()[0].violated);
  EXPECT_EQ(mon.fds()[0].measures.distinct_x, clean.distinct_x);
  EXPECT_EQ(mon.fds()[0].measures.confidence, clean.confidence);
  EXPECT_TRUE(mon.drift_log().empty());

  Append(shared, mon, {"Hoboken", "10001", "NJ"});
  ASSERT_TRUE(mon.fds()[0].violated);
  const FdMeasures dirty = mon.fds()[0].measures;
  self_update(shared.tuple_count() - 1);  // violated regime
  EXPECT_TRUE(mon.fds()[0].violated);
  EXPECT_EQ(mon.fds()[0].measures.distinct_x, dirty.distinct_x);
  EXPECT_EQ(mon.fds()[0].measures.distinct_xy, dirty.distinct_xy);
  EXPECT_EQ(mon.drift_log().size(), 1u);  // only the original violation
}

TEST(SchemaMonitorTest, CompactionExactlyOnCheckBoundaryStaysConsistent) {
  // Interval 3: the compaction lands on the same Poll() that triggers the
  // periodic check, so the monitor must resync its caches and validate in
  // one observation — the historical failure mode is a check against the
  // pre-compaction row ids.
  Relation shared = CleanInstance();
  SchemaMonitor mon(&shared, {Fd::Parse("zip -> state", MonitorSchema())},
                    /*check_interval=*/3);
  Append(shared, mon, {"Hoboken", "10001", "NJ"});  // 1 mutation since check
  shared.DeleteRow(0);
  mon.Poll();  // 2
  shared.AppendRow({"Albany", "12201", "NY"});
  shared.Compact();  // row ids reassigned...
  mon.Poll();        // ...on the exact Poll that fires the check (3rd)
  ASSERT_EQ(mon.checks_run(), 1u);
  FdMeasures expect = ComputeMeasures(shared, mon.fds()[0].fd);
  EXPECT_EQ(mon.fds()[0].measures.distinct_x, expect.distinct_x);
  EXPECT_EQ(mon.fds()[0].measures.distinct_xy, expect.distinct_xy);
  EXPECT_EQ(mon.fds()[0].measures.confidence, expect.confidence);
  EXPECT_EQ(mon.fds()[0].violated, !expect.exact);
}

}  // namespace
}  // namespace fdevolve::fd
