#include "fd/schema_monitor.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <stdexcept>
#include <utility>
#include <vector>

#include "fd/sampled_estimate.h"
#include "query/group_ids.h"
#include "relation/relation.h"
#include "util/rng.h"

namespace fdevolve::fd {
namespace {

using relation::AttrSet;
using relation::DataType;
using relation::Relation;
using relation::Schema;
using relation::Value;

Schema XySchema() {
  return Schema({{"x", DataType::kInt64}, {"y", DataType::kInt64}});
}

Relation XyRelation() { return Relation("t", XySchema()); }

Fd XtoY() { return Fd(AttrSet::Of({0}), AttrSet::Of({1})); }

std::vector<Value> Row(int64_t x, int64_t y) { return {Value(x), Value(y)}; }

/// Appends (x, y) behind the monitor's back, then lets it observe.
void Append(Relation& rel, SchemaMonitor& mon, int64_t x, int64_t y) {
  rel.AppendRow(Row(x, y));
  mon.Poll();
}

/// Records every estimate callback as (fd_index, confidence, lo, hi) for
/// sequence comparison — the resume gate compares these bitwise.
struct EstimateLog {
  struct Entry {
    size_t fd_index;
    double confidence;
    double lo, hi;
    bool approx;
  };
  std::vector<Entry> entries;

  void Attach(SchemaMonitor* mon) {
    mon->OnEstimate([this](size_t i, const SampledMeasures& est) {
      entries.push_back({i, est.measures.confidence, est.confidence_lo,
                         est.confidence_hi, est.approx});
    });
  }
};

bool SameEntries(const EstimateLog& a, const EstimateLog& b) {
  if (a.entries.size() != b.entries.size()) return false;
  for (size_t i = 0; i < a.entries.size(); ++i) {
    const auto& ea = a.entries[i];
    const auto& eb = b.entries[i];
    if (ea.fd_index != eb.fd_index || ea.confidence != eb.confidence ||
        ea.lo != eb.lo || ea.hi != eb.hi || ea.approx != eb.approx) {
      return false;
    }
  }
  return true;
}

TEST(SampledMonitorTest, FullCoverageMatchesExactMonitorBitIdentically) {
  // Capacity above everything ever appended: Algorithm R never evicts,
  // the sample IS the relation, and the sampled monitor must agree with
  // the exact one measure for measure, event for event.
  Relation rel = XyRelation();
  SchemaMonitor exact(&rel, {XtoY()}, /*check_interval=*/3);
  SchemaMonitor sampled(&rel, {XtoY()}, /*check_interval=*/3,
                        /*capacity=*/1000, /*seed=*/42);
  for (int i = 0; i < 30; ++i) {
    // x repeats every 5, y breaks the FD at i=17 and repairs nothing.
    const int64_t x = i % 5;
    const int64_t y = (i == 17) ? 99 : x * 10;
    rel.AppendRow(Row(x, y));
    exact.Poll();
    sampled.Poll();
  }
  exact.CheckNow();
  sampled.CheckNow();

  ASSERT_EQ(exact.fds().size(), sampled.fds().size());
  for (size_t i = 0; i < exact.fds().size(); ++i) {
    EXPECT_EQ(exact.fds()[i].measures.distinct_x,
              sampled.fds()[i].measures.distinct_x);
    EXPECT_EQ(exact.fds()[i].measures.distinct_xy,
              sampled.fds()[i].measures.distinct_xy);
    EXPECT_EQ(exact.fds()[i].measures.confidence,
              sampled.fds()[i].measures.confidence);  // exact doubles
    EXPECT_EQ(exact.fds()[i].violated, sampled.fds()[i].violated);
  }
  ASSERT_EQ(exact.drift_log().size(), sampled.drift_log().size());
  for (size_t e = 0; e < exact.drift_log().size(); ++e) {
    const DriftEvent& a = exact.drift_log()[e];
    const DriftEvent& b = sampled.drift_log()[e];
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.tuple_count, b.tuple_count);
    EXPECT_EQ(a.measures.confidence, b.measures.confidence);
    EXPECT_FALSE(b.approx);  // full coverage serializes like an exact event
    EXPECT_EQ(b.confidence_lo, 1.0);
    EXPECT_EQ(b.confidence_hi, 1.0);
  }
  for (const SampledMeasures& est : sampled.estimates()) {
    EXPECT_FALSE(est.approx);
    EXPECT_EQ(est.sample_rows, est.live_rows);
  }
}

TEST(SampledMonitorTest, NeverRaisesFalseAlarmOnExactStream) {
  // X -> Y holds for the whole stream; whatever 5-row subset the
  // reservoir lands on, no witness pair exists, so no drift fires.
  Relation rel = XyRelation();
  SchemaMonitor mon(&rel, {XtoY()}, /*check_interval=*/1,
                    /*capacity=*/5, /*seed=*/7);
  for (int i = 0; i < 400; ++i) Append(rel, mon, i % 20, (i % 20) * 3);
  EXPECT_TRUE(mon.drift_log().empty());
  EXPECT_FALSE(mon.fds()[0].violated);
  EXPECT_FALSE(mon.estimates()[0].witnessed_violation);
}

TEST(SampledMonitorTest, WitnessedViolationFlagsApproxDriftWithIntervals) {
  // An exact prefix far beyond the capacity, then a flood of rows sharing
  // x=1 with fresh y's: any two sampled suffix rows witness the
  // violation, and because coverage is partial by the time one does, the
  // drift event must carry approx=true and a coherent interval.
  Relation rel = XyRelation();
  SchemaMonitor mon(&rel, {XtoY()}, /*check_interval=*/1,
                    /*capacity=*/5, /*seed=*/11);
  for (int i = 0; i < 50; ++i) Append(rel, mon, 100 + i, i * 2);  // exact
  for (int i = 0; i < 100; ++i) Append(rel, mon, 1, i);  // violating flood
  ASSERT_FALSE(mon.drift_log().empty());
  const DriftEvent& ev = mon.drift_log()[0];
  EXPECT_EQ(ev.kind, DriftKind::kViolated);
  EXPECT_TRUE(ev.approx);
  EXPECT_LE(ev.confidence_lo, ev.measures.confidence);
  EXPECT_LE(ev.measures.confidence, ev.confidence_hi);
  EXPECT_LE(ev.goodness_lo, ev.goodness_hi);
  EXPECT_TRUE(mon.fds()[0].violated);

  const SampledMeasures& est = mon.estimates()[0];
  EXPECT_TRUE(est.approx);
  EXPECT_TRUE(est.witnessed_violation);
  EXPECT_LT(est.sample_rows, est.live_rows);
  EXPECT_LE(est.confidence_lo, est.confidence_hi);
  EXPECT_GE(est.confidence_lo, 0.0);
  EXPECT_LE(est.confidence_hi, 1.0);
}

TEST(SampledMonitorTest, DeleteOfWitnessRecoversAtFullCoverage) {
  Relation rel = XyRelation();
  SchemaMonitor mon(&rel, {XtoY()}, /*check_interval=*/1,
                    /*capacity=*/100, /*seed=*/3);
  Append(rel, mon, 1, 10);
  Append(rel, mon, 1, 20);  // witness pair
  ASSERT_EQ(mon.drift_log().size(), 1u);
  EXPECT_EQ(mon.drift_log()[0].kind, DriftKind::kViolated);
  rel.DeleteRow(1);  // remove the second y — FD exact again
  mon.Poll();
  ASSERT_EQ(mon.drift_log().size(), 2u);
  EXPECT_EQ(mon.drift_log()[1].kind, DriftKind::kRecovered);
  EXPECT_FALSE(mon.fds()[0].violated);
}

TEST(SampledMonitorTest, AddFdOnViolatedSampleRegistersViolated) {
  Relation initial = XyRelation();
  initial.AppendRow(Row(1, 10));
  initial.AppendRow(Row(1, 20));
  SchemaMonitor mon(&initial, std::vector<Fd>{}, /*check_interval=*/1,
                    /*capacity=*/10, /*seed=*/5);
  const size_t idx = mon.AddFd(XtoY());
  EXPECT_FALSE(mon.fds()[idx].was_exact_at_registration);
  EXPECT_TRUE(mon.fds()[idx].violated);
  // Already-violated at registration: no drift event (same contract as
  // the exact monitor — the log records transitions, not states).
  EXPECT_TRUE(mon.drift_log().empty());
}

TEST(SampledMonitorTest, CheckpointResumeReplaysIdenticalEstimateSequence) {
  Relation rel_a = XyRelation();
  SchemaMonitor a(&rel_a, {XtoY()}, /*check_interval=*/4,
                  /*capacity=*/6, /*seed=*/99);
  for (int i = 0; i < 50; ++i) Append(rel_a, a, i % 7, i % 13);

  Relation rel_b = rel_a;
  SchemaMonitor b(&rel_b, a.State());

  EstimateLog la, lb;
  la.Attach(&a);
  lb.Attach(&b);
  for (int i = 50; i < 120; ++i) {
    Append(rel_a, a, i % 7, i % 13);
    Append(rel_b, b, i % 7, i % 13);
  }
  a.CheckNow();
  b.CheckNow();
  EXPECT_FALSE(la.entries.empty());
  EXPECT_TRUE(SameEntries(la, lb))
      << "resumed monitor diverged from the uninterrupted one";
  EXPECT_EQ(a.checks_run(), b.checks_run());
  ASSERT_EQ(a.drift_log().size(), b.drift_log().size());
}

TEST(SampledMonitorTest, ExternalStateRestoreCrossChecksMeasures) {
  Relation rel = XyRelation();
  SchemaMonitor mon(&rel, {XtoY()}, /*check_interval=*/1,
                    /*capacity=*/8, /*seed=*/21);
  for (int i = 0; i < 30; ++i) Append(rel, mon, i % 4, i % 9);
  MonitorState state = mon.State();
  ASSERT_TRUE(state.reservoir.has_value());

  // Clean restore reproduces the estimates.
  SchemaMonitor restored(&rel, state);
  ASSERT_EQ(restored.estimates().size(), mon.estimates().size());
  EXPECT_EQ(restored.estimates()[0].measures.confidence,
            mon.estimates()[0].measures.confidence);
  EXPECT_EQ(restored.estimates()[0].confidence_lo,
            mon.estimates()[0].confidence_lo);

  // Tampered carried measures fail the re-estimation cross-check.
  MonitorState tampered = mon.State();
  ASSERT_FALSE(tampered.fds.empty());
  tampered.fds[0].measures.distinct_x += 5;
  EXPECT_THROW(SchemaMonitor(&rel, tampered), std::invalid_argument);
}

TEST(SampledMonitorTest, PollChecksAtMostOncePerAppendedBatch) {
  Relation rel = XyRelation();
  SchemaMonitor mon(&rel, {XtoY()}, /*check_interval=*/5,
                    /*capacity=*/100, /*seed=*/2);
  std::vector<std::vector<Value>> batch;
  for (int i = 0; i < 12; ++i) batch.push_back(Row(i, i));
  rel.AppendRows(batch);
  mon.Poll();  // 12 appends, interval 5 -> exactly one check
  EXPECT_EQ(mon.checks_run(), 1u);
  rel.AppendRows({Row(100, 100), Row(101, 101), Row(102, 102)});
  mon.Poll();
  EXPECT_EQ(mon.checks_run(), 2u);  // 2 carried + 3 = 5 -> check
}

TEST(SampledMonitorTest, CompactionOnCheckBoundaryKeepsEstimatesCoherent) {
  Relation rel = XyRelation();
  SchemaMonitor mon(&rel, {XtoY()}, /*check_interval=*/1,
                    /*capacity=*/10, /*seed=*/13);
  for (int i = 0; i < 80; ++i) Append(rel, mon, i % 6, (i % 6) * 2);
  for (size_t t = 0; t < 40; ++t) rel.DeleteRow(t);
  mon.Poll();
  rel.Compact();  // exactly at a poll boundary
  mon.Poll();
  const SampledMeasures& est = mon.estimates()[0];
  EXPECT_LE(est.sample_rows, 10u);
  EXPECT_EQ(est.live_rows, rel.live_count());
  EXPECT_FALSE(mon.fds()[0].violated);  // stream stayed exact throughout
  EXPECT_TRUE(mon.drift_log().empty());
}

TEST(SampledMonitorTest, ProjectionStatsMatchesCodeTupleOracle) {
  // Three columns over small domains with NULLs, a third of the rows
  // tombstoned: projections have repeated, singleton and NULL keys.
  Relation rel("t", Schema({{"x", DataType::kInt64},
                            {"y", DataType::kInt64},
                            {"z", DataType::kInt64}}));
  util::Rng rng(41);
  for (int i = 0; i < 600; ++i) {
    std::vector<Value> row;
    for (uint64_t domain : {30u, 7u, 400u}) {
      if (rng.Chance(0.1)) {
        row.push_back(Value::Null());
      } else {
        row.emplace_back(static_cast<int64_t>(rng.Below(domain)));
      }
    }
    rel.AppendRow(row);
  }
  std::vector<uint32_t> live;
  for (uint32_t t = 0; t < rel.tuple_count(); ++t) {
    if (rng.Chance(0.3)) {
      rel.DeleteRow(t);
    } else {
      live.push_back(t);
    }
  }
  std::vector<uint32_t> sample;  // a sample-sized subset, shuffled
  for (uint32_t t : live) {
    if (rng.Chance(0.2)) sample.push_back(t);
  }
  for (size_t i = sample.size(); i > 1; --i) {
    std::swap(sample[i - 1], sample[rng.Below(i)]);
  }

  query::RefineScratch scratch;
  for (const std::vector<uint32_t>* rows : {&live, &sample}) {
    for (const AttrSet& attrs :
         {AttrSet(), AttrSet::Of({0}), AttrSet::Of({1}), AttrSet::Of({2}),
          AttrSet::Of({0, 1}), AttrSet::Of({0, 2}), AttrSet::Of({0, 1, 2})}) {
      std::map<std::vector<uint32_t>, size_t> oracle;
      for (uint32_t t : *rows) {
        std::vector<uint32_t> key;
        for (int a : attrs.ToVector()) key.push_back(rel.column(a).code(t));
        ++oracle[key];
      }
      size_t singletons = 0;
      for (const auto& [key, count] : oracle) singletons += count == 1 ? 1 : 0;
      const SampleProjectionStats stats =
          ProjectionStats(rel, *rows, attrs, scratch);
      EXPECT_EQ(stats.distinct, oracle.size()) << attrs.Count();
      EXPECT_EQ(stats.singletons, singletons) << attrs.Count();
    }
  }
  const SampleProjectionStats empty =
      ProjectionStats(rel, {}, AttrSet::Of({0}), scratch);
  EXPECT_EQ(empty.distinct, 0u);
  EXPECT_EQ(empty.singletons, 0u);
}

}  // namespace
}  // namespace fdevolve::fd
