#include "fd/schema_monitor.h"

#include <gtest/gtest.h>

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

TEST(SchemaMonitorTest, ExactAtRegistration) {
  SchemaMonitor mon(CleanInstance(),
                    {Fd::Parse("zip -> state", MonitorSchema())});
  ASSERT_EQ(mon.fds().size(), 1u);
  EXPECT_TRUE(mon.fds()[0].was_exact_at_registration);
  EXPECT_FALSE(mon.fds()[0].violated);
}

TEST(SchemaMonitorTest, DriftDetectedOnInsert) {
  SchemaMonitor mon(CleanInstance(),
                    {Fd::Parse("zip -> state", MonitorSchema())});
  mon.Insert({"Hoboken", "10001", "NJ"});  // 10001 now maps to NY and NJ
  EXPECT_TRUE(mon.fds()[0].violated);
  ASSERT_EQ(mon.drift_log().size(), 1u);
  EXPECT_EQ(mon.drift_log()[0].fd_index, 0u);
  EXPECT_EQ(mon.drift_log()[0].tuple_count, 3u);
}

TEST(SchemaMonitorTest, DriftCallbackFires) {
  SchemaMonitor mon(CleanInstance(),
                    {Fd::Parse("zip -> state", MonitorSchema())});
  int fired = 0;
  mon.OnDrift([&](const DriftEvent& ev) {
    ++fired;
    EXPECT_FALSE(ev.measures.exact);
  });
  mon.Insert({"Hoboken", "10001", "NJ"});
  EXPECT_EQ(fired, 1);
  // Further violating inserts do not re-fire for an already-violated FD.
  mon.Insert({"Newark", "10001", "PA"});
  EXPECT_EQ(fired, 1);
}

TEST(SchemaMonitorTest, CheckIntervalBatchesValidation) {
  SchemaMonitor mon(CleanInstance(),
                    {Fd::Parse("zip -> state", MonitorSchema())},
                    /*check_interval=*/3);
  mon.Insert({"Hoboken", "10001", "NJ"});  // violates, but not checked yet
  EXPECT_FALSE(mon.fds()[0].violated);
  mon.Insert({"X", "90001", "CA"});
  EXPECT_FALSE(mon.fds()[0].violated);
  mon.Insert({"Y", "90002", "CA"});  // third insert triggers the check
  EXPECT_TRUE(mon.fds()[0].violated);
}

TEST(SchemaMonitorTest, SuggestRepairsCoversViolatedOnly) {
  SchemaMonitor mon(CleanInstance(),
                    {Fd::Parse("zip -> state", MonitorSchema()),
                     Fd::Parse("zip -> city", MonitorSchema())});
  mon.Insert({"Hoboken", "10001", "NJ"});  // breaks both? city NY->Hoboken yes
  auto suggestions = mon.SuggestRepairs();
  EXPECT_EQ(suggestions.size(), 2u);
}

TEST(SchemaMonitorTest, AcceptRepairReplacesFdAndClearsViolation) {
  SchemaMonitor mon(CleanInstance(),
                    {Fd::Parse("zip -> state", MonitorSchema())});
  mon.Insert({"Hoboken", "10001", "NJ"});
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
  SchemaMonitor mon(CleanInstance(),
                    {Fd::Parse("zip -> state", MonitorSchema())});
  Repair r;
  r.repaired = Fd::Parse("city -> state", MonitorSchema());
  EXPECT_THROW(mon.AcceptRepair(5, r), std::out_of_range);
}

TEST(SchemaMonitorTest, ViolatedAtRegistrationIsRecorded) {
  Relation dirty = RelationBuilder("addr", MonitorSchema())
                       .Row({"NY", "10001", "NY"})
                       .Row({"Hoboken", "10001", "NJ"})
                       .Build();
  SchemaMonitor mon(std::move(dirty),
                    {Fd::Parse("zip -> state", MonitorSchema())});
  EXPECT_TRUE(mon.fds()[0].violated);
  EXPECT_FALSE(mon.fds()[0].was_exact_at_registration);
}

TEST(SchemaMonitorTest, CheckNowReturnsViolatedIndices) {
  SchemaMonitor mon(CleanInstance(),
                    {Fd::Parse("zip -> state", MonitorSchema()),
                     Fd::Parse("city -> zip", MonitorSchema())},
                    /*check_interval=*/1000);  // manual checks only
  mon.Insert({"Hoboken", "10001", "NJ"});
  auto violated = mon.CheckNow();
  ASSERT_EQ(violated.size(), 1u);
  EXPECT_EQ(violated[0], 0u);
}

TEST(SchemaMonitorTest, InsertBatchRunsOneCheckPerBatch) {
  SchemaMonitor mon(CleanInstance(),
                    {Fd::Parse("zip -> state", MonitorSchema())},
                    /*check_interval=*/3);
  // 4 inserts cross the interval once: exactly one check, at the end of
  // the batch, sees the violating row.
  const size_t before = mon.checks_run();
  mon.InsertBatch({{"Hoboken", "10001", "NJ"},
                   {"X", "90001", "CA"},
                   {"Y", "90002", "CA"},
                   {"Z", "90003", "CA"}});
  EXPECT_EQ(mon.checks_run(), before + 1);
  EXPECT_TRUE(mon.fds()[0].violated);
  ASSERT_EQ(mon.drift_log().size(), 1u);
  EXPECT_EQ(mon.drift_log()[0].tuple_count, 6u);
}

TEST(SchemaMonitorTest, InsertBatchBelowIntervalDefersCheck) {
  SchemaMonitor mon(CleanInstance(),
                    {Fd::Parse("zip -> state", MonitorSchema())},
                    /*check_interval=*/10);
  mon.InsertBatch({{"Hoboken", "10001", "NJ"}});
  EXPECT_FALSE(mon.fds()[0].violated);  // not checked yet
  mon.InsertBatch({});  // empty batch: no check, no state change
  EXPECT_FALSE(mon.fds()[0].violated);
  auto violated = mon.CheckNow();
  ASSERT_EQ(violated.size(), 1u);
}

TEST(SchemaMonitorTest, BatchValidationIsAllOrNothing) {
  SchemaMonitor mon(CleanInstance(),
                    {Fd::Parse("zip -> state", MonitorSchema())});
  // Second row has a type mismatch: the whole batch must be rejected and
  // the monitor's relation stay intact.
  EXPECT_THROW(mon.InsertBatch({{"Hoboken", "10001", "NJ"},
                                {"X", relation::Value(int64_t{5}), "CA"}}),
               std::invalid_argument);
  EXPECT_EQ(mon.rel().tuple_count(), 2u);
  EXPECT_FALSE(mon.fds()[0].violated);
}

TEST(SchemaMonitorTest, IncrementalChecksMatchScratchRecomputation) {
  // Drive the same stream through the monitor and through from-scratch
  // measures; flags and counts must agree at every check.
  SchemaMonitor mon(CleanInstance(),
                    {Fd::Parse("zip -> state", MonitorSchema()),
                     Fd::Parse("zip -> city", MonitorSchema())});
  Relation shadow = CleanInstance();
  const std::vector<std::vector<Value>> stream = {
      {"NY", "10001", "NY"},      // duplicate zip, same state
      {"Albany", "12201", "NY"},  // new zip
      {"Hoboken", "10001", "NJ"}, // drift: 10001 -> {NY, NJ}
      {"Newark", "07101", "NJ"},
  };
  for (const auto& row : stream) {
    mon.Insert(row);
    shadow.AppendRow(row);
    for (size_t i = 0; i < mon.fds().size(); ++i) {
      FdMeasures expect = ComputeMeasures(shadow, mon.fds()[i].fd);
      EXPECT_EQ(mon.fds()[i].measures.distinct_x, expect.distinct_x);
      EXPECT_EQ(mon.fds()[i].measures.distinct_xy, expect.distinct_xy);
      EXPECT_EQ(mon.fds()[i].violated, !expect.exact);
    }
  }
}

TEST(SchemaMonitorTest, AcceptRepairKeepsSubsequentChecksIncremental) {
  SchemaMonitor mon(CleanInstance(),
                    {Fd::Parse("zip -> state", MonitorSchema())});
  mon.Insert({"Hoboken", "10001", "NJ"});
  auto suggestions = mon.SuggestRepairs();
  ASSERT_FALSE(suggestions.empty());
  ASSERT_TRUE(suggestions[0].found());
  mon.AcceptRepair(0, suggestions[0].repairs[0]);
  EXPECT_FALSE(mon.fds()[0].violated);
  // The repaired FD is tracked in the same evaluator: further inserts keep
  // validating it (and agree with a scratch computation).
  mon.Insert({"Quincy", "02169", "MA"});
  FdMeasures expect = ComputeMeasures(mon.rel(), mon.fds()[0].fd);
  EXPECT_EQ(mon.fds()[0].violated, !expect.exact);
  EXPECT_EQ(mon.fds()[0].measures.distinct_x, expect.distinct_x);
  EXPECT_EQ(mon.fds()[0].measures.distinct_xy, expect.distinct_xy);
}

TEST(SchemaMonitorTest, CheckpointRestoreContinuesCadence) {
  // Interrupt mid-interval: the restored monitor must keep the interval
  // phase (inserts_since_check) so the next check fires at the same insert
  // the uninterrupted monitor would check at.
  SchemaMonitor a(CleanInstance(),
                  {Fd::Parse("zip -> state", MonitorSchema())},
                  /*check_interval=*/3);
  SchemaMonitor b(CleanInstance(),
                  {Fd::Parse("zip -> state", MonitorSchema())},
                  /*check_interval=*/3);
  a.Insert({"Hoboken", "07030", "NJ"});
  b.Insert({"Hoboken", "07030", "NJ"});
  a.Insert({"Hoboken", "10001", "NJ"});  // drift, detected at next check
  b.Insert({"Hoboken", "10001", "NJ"});

  SchemaMonitor resumed(b.Checkpoint());
  EXPECT_EQ(resumed.checks_run(), b.checks_run());
  EXPECT_EQ(resumed.rel().tuple_count(), b.rel().tuple_count());
  ASSERT_EQ(resumed.fds().size(), 1u);
  EXPECT_FALSE(resumed.fds()[0].violated);  // not yet checked

  a.Insert({"Albany", "12207", "NY"});  // third insert: interval check
  resumed.Insert({"Albany", "12207", "NY"});
  EXPECT_EQ(resumed.checks_run(), a.checks_run());
  EXPECT_TRUE(resumed.fds()[0].violated);
  ASSERT_EQ(resumed.drift_log().size(), 1u);
  EXPECT_EQ(resumed.drift_log()[0].tuple_count, a.drift_log()[0].tuple_count);
  EXPECT_EQ(resumed.fds()[0].measures.confidence,
            a.fds()[0].measures.confidence);
}

TEST(SchemaMonitorTest, CheckpointCarriesAcceptedRepair) {
  SchemaMonitor mon(CleanInstance(),
                    {Fd::Parse("zip -> state", MonitorSchema())});
  mon.Insert({"Hoboken", "10001", "NJ"});
  ASSERT_TRUE(mon.fds()[0].violated);
  Repair r;
  r.repaired = Fd::Parse("zip, city -> state", MonitorSchema());
  mon.AcceptRepair(0, r);
  ASSERT_FALSE(mon.fds()[0].violated);

  SchemaMonitor resumed(mon.Checkpoint());
  ASSERT_EQ(resumed.fds().size(), 1u);
  EXPECT_EQ(resumed.fds()[0].fd, r.repaired);
  EXPECT_FALSE(resumed.fds()[0].violated);
  // The repaired FD stays incrementally tracked across the resume.
  resumed.Insert({"Hoboken", "10001", "NY"});  // (zip, city) seen with NJ
  EXPECT_TRUE(resumed.fds()[0].violated);
}

TEST(SchemaMonitorTest, RestoreRejectsFdOutsideSchema) {
  SchemaMonitor mon(CleanInstance(),
                    {Fd::Parse("zip -> state", MonitorSchema())});
  MonitorCheckpoint ckpt = mon.Checkpoint();
  ckpt.fds[0].fd = Fd(AttrSet::Of({7}), AttrSet::Of({9}));
  EXPECT_THROW(SchemaMonitor{std::move(ckpt)}, std::invalid_argument);
}

TEST(SchemaMonitorTest, RestoreRejectsTamperedMeasures) {
  SchemaMonitor mon(CleanInstance(),
                    {Fd::Parse("zip -> state", MonitorSchema())});
  MonitorCheckpoint ckpt = mon.Checkpoint();
  ASSERT_EQ(ckpt.inserts_since_check, 0u);  // measures are current
  ckpt.fds[0].measures.distinct_xy += 1;
  EXPECT_THROW(SchemaMonitor{std::move(ckpt)}, std::invalid_argument);
}

TEST(SchemaMonitorTest, ExternalModePollMatchesOwningInsert) {
  // Owning monitor fed through Insert() vs. external monitor observing a
  // caller-owned relation through Poll(): identical checks, measures, and
  // drift events.
  SchemaMonitor owning(CleanInstance(),
                       {Fd::Parse("zip -> state", MonitorSchema())},
                       /*check_interval=*/2);
  Relation shared = CleanInstance();
  SchemaMonitor external(&shared,
                         {Fd::Parse("zip -> state", MonitorSchema())},
                         /*check_interval=*/2);
  const std::vector<std::vector<Value>> rows = {
      {"Hoboken", "07030", "NJ"},
      {"Weehawken", "10001", "NJ"},  // 10001 -> {NY, NJ}: drift
      {"Camden", "08101", "NJ"},
      {"Newark", "07101", "NJ"},
  };
  for (const auto& row : rows) {
    owning.Insert(row);
    shared.AppendRow(row);
    external.Poll();
    ASSERT_EQ(external.checks_run(), owning.checks_run());
    ASSERT_EQ(external.fds()[0].violated, owning.fds()[0].violated);
  }
  ASSERT_EQ(external.drift_log().size(), owning.drift_log().size());
  ASSERT_EQ(external.drift_log().size(), 1u);
  EXPECT_EQ(external.drift_log()[0].tuple_count,
            owning.drift_log()[0].tuple_count);
}

TEST(SchemaMonitorTest, ExternalModePollFoldsWholeAppendedSuffix) {
  Relation shared = CleanInstance();
  SchemaMonitor mon(&shared, {Fd::Parse("zip -> state", MonitorSchema())},
                    /*check_interval=*/3);
  // Three rows appended behind the monitor's back, one Poll: exactly one
  // check (same cadence an InsertBatch of three would give).
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
  shared.AppendRow({"Hoboken", "10001", "NJ"});
  mon.Poll();
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
  shared.AppendRow({"Hoboken", "07030", "NJ"});
  mon.Poll();  // counter at 1, below interval: no check yet
  EXPECT_EQ(mon.checks_run(), 0u);

  MonitorState state = mon.State();
  EXPECT_EQ(state.watermark, shared.version());
  SchemaMonitor restored(&shared, state);
  shared.AppendRow({"Weehawken", "10001", "NJ"});
  shared.AppendRow({"Camden", "08101", "NJ"});
  mon.Poll();
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
  shared.AppendRow({"Hoboken", "10001", "NJ"});  // 10001 -> {NY, NJ}
  mon.Poll();
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
  shared.AppendRow({"Hoboken", "10001", "NJ"});
  mon.Poll();
  shared.DeleteRow(2);
  mon.Poll();
  shared.AppendRow({"Camden", "08101", "NJ"});  // clean append: no event
  mon.Poll();
  ASSERT_EQ(kinds.size(), 2u);
  EXPECT_EQ(kinds[0], DriftKind::kViolated);
  EXPECT_EQ(kinds[1], DriftKind::kRecovered);
}

TEST(SchemaMonitorTest, ReViolationAfterRecoveryFiresAgain) {
  Relation shared = CleanInstance();
  SchemaMonitor mon(&shared, {Fd::Parse("zip -> state", MonitorSchema())});
  shared.AppendRow({"Hoboken", "10001", "NJ"});
  mon.Poll();
  shared.DeleteRow(2);
  mon.Poll();
  shared.AppendRow({"Weehawken", "10001", "NJ"});  // violate again
  mon.Poll();
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
  shared.AppendRow({"Hoboken", "10001", "NJ"});
  mon.Poll();
  ASSERT_TRUE(mon.fds()[0].violated);
  shared.DeleteRow(2);
  shared.Compact();  // row ids and codes reassigned wholesale
  mon.Poll();
  EXPECT_FALSE(mon.fds()[0].violated);
  // Still incremental afterwards: appends against the compacted relation
  // keep validating.
  shared.AppendRow({"Weehawken", "10001", "NJ"});
  mon.Poll();
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
  shared.AppendRow({"Hoboken", "10001", "NJ"});  // witness: 10001 -> NY, NJ
  mon.Poll();
  ASSERT_TRUE(mon.fds()[0].violated);
  shared.DeleteRow(2);
  mon.Poll();
  ASSERT_FALSE(mon.fds()[0].violated);
  shared.AppendRow({"Hoboken", "10001", "NJ"});  // same values, new row
  mon.Poll();
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
    shared.AppendRow(row);
    mon.Poll();
  };
  const FdMeasures clean = mon.fds()[0].measures;
  self_update(0);  // exact regime
  EXPECT_FALSE(mon.fds()[0].violated);
  EXPECT_EQ(mon.fds()[0].measures.distinct_x, clean.distinct_x);
  EXPECT_EQ(mon.fds()[0].measures.confidence, clean.confidence);
  EXPECT_TRUE(mon.drift_log().empty());

  shared.AppendRow({"Hoboken", "10001", "NJ"});
  mon.Poll();
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
  shared.AppendRow({"Hoboken", "10001", "NJ"});
  mon.Poll();  // 1 mutation since last check
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
