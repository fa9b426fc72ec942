// Differential fuzzing of the mutable-relation stack: randomized
// INSERT/DELETE/UPDATE streams driven through the tombstone layer, the
// incremental DistinctEvaluator, the SchemaMonitor, and the snapshot
// round-trip — each compared against a fresh rebuild of the same final
// live instance (append the live rows of the mutated relation in physical
// order into a virgin relation and recompute from scratch).
//
// The contract under test (ISSUE: mutable relations end to end): group
// ids, distinct counts, measure doubles, and drift flags computed
// incrementally under mutation are bit-identical to the from-scratch
// values, before AND after compaction. Reproducible via --seed=N /
// FDEVOLVE_SEED.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "fd/measures.h"
#include "fd/schema_monitor.h"
#include "query/column_stats.h"
#include "query/distinct.h"
#include "query/group_ids.h"
#include "relation/relation.h"
#include "storage/snapshot.h"
#include "support/column_scan.h"
#include "support/fuzz_seed.h"
#include "support/sort_distinct.h"
#include "util/rng.h"

namespace fdevolve {
namespace {

using relation::AttrSet;
using relation::DataType;
using relation::Relation;
using relation::Schema;
using relation::Value;

Schema IntSchema(int n_attrs) {
  std::vector<relation::Attribute> attrs;
  for (int i = 0; i < n_attrs; ++i) {
    attrs.push_back({"a" + std::to_string(i), DataType::kInt64});
  }
  return Schema(std::move(attrs));
}

/// Integer, string and double columns: string widths vary, and the
/// doubles hold both signed zeros (one code) and NaN (a fresh code per
/// append).
Schema MixedSchema() {
  return Schema({{"i", DataType::kInt64},
                 {"s", DataType::kString},
                 {"d", DataType::kDouble},
                 {"t", DataType::kString}});
}

/// The cell that draw `k` < `domain` stands for in a column of `type`:
/// every type takes exactly one draw per cell.
Value Cell(DataType type, uint64_t k, uint64_t domain) {
  switch (type) {
    case DataType::kInt64:
      return Value(static_cast<int64_t>(k));
    case DataType::kDouble:
      if (k == 1) return Value(-0.0);
      if (k + 1 == domain) return Value(std::nan(""));
      return Value(static_cast<double>(k) * 0.5);
    default:
      return Value(std::string(1 + k % 5, static_cast<char>('a' + k % 26)));
  }
}

std::vector<Value> RandomRow(util::Rng& rng, const Schema& schema,
                             size_t domain, double null_rate) {
  std::vector<Value> row;
  row.reserve(static_cast<size_t>(schema.size()));
  for (const auto& attr : schema.attrs()) {
    if (rng.Chance(null_rate)) {
      row.push_back(Value::Null());
    } else {
      row.push_back(Cell(attr.type, rng.Below(domain), domain));
    }
  }
  return row;
}

AttrSet RandomSubset(util::Rng& rng, int n_attrs, double p) {
  AttrSet s;
  for (int a = 0; a < n_attrs; ++a) {
    if (rng.Chance(p)) s.Add(a);
  }
  return s;
}

/// Collects the currently-live physical row ids.
std::vector<size_t> LiveRows(const Relation& rel) {
  std::vector<size_t> live;
  for (size_t t = 0; t < rel.tuple_count(); ++t) {
    if (rel.is_live(t)) live.push_back(t);
  }
  return live;
}

/// Fresh rebuild of the mutated relation's live instance: what a
/// tombstone-free relation holding exactly the live rows (in physical
/// order) looks like. Ground truth for every differential check.
Relation FreshRebuild(const Relation& rel) {
  Relation fresh(rel.name(), rel.schema());
  for (size_t t : LiveRows(rel)) {
    std::vector<Value> row;
    for (int i = 0; i < rel.attr_count(); ++i) row.push_back(rel.Get(t, i));
    fresh.AppendRow(row);
  }
  return fresh;
}

/// One random mutation step against `rel`: append (likely), delete a
/// random live row, or update (delete + re-append a derived row — the SQL
/// engine's UPDATE decomposition).
void RandomMutation(util::Rng& rng, Relation* rel, int n_attrs, size_t domain,
                    double null_rate) {
  const std::vector<size_t> live = LiveRows(*rel);
  const double roll = live.empty() ? 0.0 : 1.0;
  if (roll == 0.0 || rng.Chance(0.55)) {
    rel->AppendRow(RandomRow(rng, rel->schema(), domain, null_rate));
    return;
  }
  const size_t victim = live[rng.Below(live.size())];
  if (rng.Chance(0.6)) {
    rel->DeleteRow(victim);
    return;
  }
  // Draw order, part of every seed's stream: the new cell, then its
  // column.
  const uint64_t k = rng.Below(domain);
  const auto target = static_cast<int>(rng.Below(static_cast<size_t>(n_attrs)));
  std::vector<Value> derived;
  derived.reserve(static_cast<size_t>(n_attrs));
  for (int i = 0; i < n_attrs; ++i) {
    if (i == target) {
      derived.push_back(Cell(rel->schema().attr(i).type, k, domain));
    } else {
      derived.push_back(rel->Get(victim, i));
    }
  }
  rel->DeleteRow(victim);
  rel->AppendRow(derived);
}

/// Every column's live counters equal the scan oracle, and
/// ComputeColumnStats equals both the oracle's statistics and a fresh
/// rebuild's, doubles bit for bit.
void ExpectLiveStatsMatch(const Relation& rel, const std::string& where) {
  const std::vector<query::ColumnStats> stats = query::ComputeColumnStats(rel);
  testsupport::ExpectStatsIdentical(stats, testsupport::ScanColumnStats(rel),
                                    where + " vs scan");
  testsupport::ExpectStatsIdentical(
      stats, query::ComputeColumnStats(FreshRebuild(rel)), where + " vs fresh");
  for (int i = 0; i < rel.attr_count(); ++i) {
    testsupport::ExpectLiveCountsMatchScan(
        rel.column(i), rel.live_bitmap(), where + " col=" + std::to_string(i));
  }
}

class MutationFuzz : public ::testing::TestWithParam<int> {
 protected:
  uint64_t seed() const { return testsupport::DeriveSeed(GetParam()); }
};

TEST_P(MutationFuzz, IncrementalEvaluatorMatchesFreshRebuild) {
  util::Rng rng(seed());
  const int n_attrs = 3 + static_cast<int>(rng.Below(3));
  const size_t domain = 2 + rng.Below(6);
  const double null_rate = rng.Chance(0.5) ? 0.0 : 0.15;
  Relation rel("mut", IntSchema(n_attrs));
  query::DistinctEvaluator eval(rel);  // persistent, delta-maintained
  for (int step = 0; step < 120; ++step) {
    RandomMutation(rng, &rel, n_attrs, domain, null_rate);
    if (step % 10 != 9) continue;
    Relation fresh = FreshRebuild(rel);
    query::DistinctEvaluator scratch(fresh);
    for (int trial = 0; trial < 6; ++trial) {
      AttrSet s = RandomSubset(rng, n_attrs, 0.4);
      const size_t incremental = eval.Count(s);
      EXPECT_EQ(incremental, scratch.Count(s))
          << "step=" << step << " attrs=" << s.Count();
      EXPECT_EQ(incremental, query::GroupCountBy(fresh, s));
      // DistinctCount and the sort oracle are live-aware too.
      EXPECT_EQ(incremental,
                query::DistinctCount(rel, s, query::DistinctStrategy::kHash));
      EXPECT_EQ(incremental, testsupport::SortDistinct(rel, s));
    }
  }
}

TEST_P(MutationFuzz, MeasureDoublesMatchFreshRebuild) {
  util::Rng rng(seed() + 17);
  const int n_attrs = 4;
  Relation rel("mut", IntSchema(n_attrs));
  query::DistinctEvaluator eval(rel);
  const fd::Fd f01(AttrSet::Of({0}), AttrSet::Of({1}));
  const fd::Fd f23(AttrSet::Of({2, 3}), AttrSet::Of({0}));
  for (int step = 0; step < 80; ++step) {
    RandomMutation(rng, &rel, n_attrs, /*domain=*/4, /*null_rate=*/0.0);
    if (step % 8 != 7) continue;
    Relation fresh = FreshRebuild(rel);
    query::DistinctEvaluator scratch(fresh);
    for (const fd::Fd& f : {f01, f23}) {
      const fd::FdMeasures a = fd::ComputeMeasures(eval, f);
      const fd::FdMeasures b = fd::ComputeMeasures(scratch, f);
      EXPECT_EQ(a.distinct_x, b.distinct_x);
      EXPECT_EQ(a.distinct_xy, b.distinct_xy);
      EXPECT_EQ(a.distinct_y, b.distinct_y);
      EXPECT_EQ(a.confidence, b.confidence);  // exact doubles, not near
      EXPECT_EQ(a.goodness, b.goodness);
      EXPECT_EQ(a.exact, b.exact);
    }
  }
}

TEST_P(MutationFuzz, CompactionIsRebuildEquivalent) {
  util::Rng rng(seed() + 31);
  const int n_attrs = 3;
  Relation rel("mut", IntSchema(n_attrs));
  query::DistinctEvaluator eval(rel);
  for (int round = 0; round < 4; ++round) {
    for (int step = 0; step < 40; ++step) {
      RandomMutation(rng, &rel, n_attrs, /*domain=*/5, /*null_rate=*/0.1);
    }
    Relation fresh = FreshRebuild(rel);
    rel.Compact();
    // Bit-identity at the encoded layer: same dictionaries (order
    // included), same codes, same null counts.
    ASSERT_EQ(rel.tuple_count(), fresh.tuple_count());
    for (int i = 0; i < n_attrs; ++i) {
      EXPECT_EQ(rel.column(i).codes(), fresh.column(i).codes())
          << "round=" << round << " col=" << i;
      EXPECT_EQ(rel.column(i).dict_values(), fresh.column(i).dict_values());
      EXPECT_EQ(rel.column(i).null_count(), fresh.column(i).null_count());
      EXPECT_EQ(rel.column(i).live_counts(), fresh.column(i).live_counts());
    }
    // The persistent evaluator survives the compaction (full cache
    // rebuild) and keeps agreeing with scratch computation.
    query::DistinctEvaluator scratch(fresh);
    for (int trial = 0; trial < 6; ++trial) {
      AttrSet s = RandomSubset(rng, n_attrs, 0.5);
      EXPECT_EQ(eval.Count(s), scratch.Count(s)) << "round=" << round;
    }
  }
}

TEST_P(MutationFuzz, MonitorUnderMutationMatchesScratchMeasures) {
  util::Rng rng(seed() + 47);
  const int n_attrs = 3;
  Relation rel("mut", IntSchema(n_attrs));
  fd::SchemaMonitor mon(&rel,
                        {fd::Fd(AttrSet::Of({0}), AttrSet::Of({1})),
                         fd::Fd(AttrSet::Of({1, 2}), AttrSet::Of({0}))},
                        /*check_interval=*/1);
  size_t transitions = 0;
  std::vector<bool> was_violated(mon.fds().size(), false);
  for (int step = 0; step < 100; ++step) {
    RandomMutation(rng, &rel, n_attrs, /*domain=*/3, /*null_rate=*/0.0);
    if (step % 25 == 24) rel.Compact();  // exercise the resync path
    mon.Poll();
    Relation fresh = FreshRebuild(rel);
    for (size_t i = 0; i < mon.fds().size(); ++i) {
      const fd::FdMeasures expect =
          fd::ComputeMeasures(fresh, mon.fds()[i].fd);
      EXPECT_EQ(mon.fds()[i].measures.distinct_x, expect.distinct_x)
          << "step=" << step << " fd=" << i;
      EXPECT_EQ(mon.fds()[i].measures.distinct_xy, expect.distinct_xy);
      EXPECT_EQ(mon.fds()[i].measures.confidence, expect.confidence);
      EXPECT_EQ(mon.fds()[i].violated, !expect.exact);
      if (mon.fds()[i].violated != was_violated[i]) {
        ++transitions;
        was_violated[i] = mon.fds()[i].violated;
      }
    }
  }
  // Every exact/violated boundary crossing is one drift event with the
  // matching direction — the log is exactly the transition sequence.
  EXPECT_EQ(mon.drift_log().size(), transitions);
  bool expect_violated = true;  // per-FD: first event is always a violation
  std::vector<bool> flag(mon.fds().size(), false);
  for (const auto& ev : mon.drift_log()) {
    ASSERT_LT(ev.fd_index, flag.size());
    const bool v = ev.kind == fd::DriftKind::kViolated;
    EXPECT_NE(v, flag[ev.fd_index]) << "non-alternating drift kind";
    flag[ev.fd_index] = v;
  }
  (void)expect_violated;
}

TEST_P(MutationFuzz, SnapshotRoundTripPreservesMutatedState) {
  util::Rng rng(seed() + 71);
  const int n_attrs = 3;
  Relation rel("mut", IntSchema(n_attrs));
  for (int step = 0; step < 60; ++step) {
    RandomMutation(rng, &rel, n_attrs, /*domain=*/4, /*null_rate=*/0.1);
  }
  auto loaded = storage::DeserializeRelation(storage::SerializeRelation(rel));
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  ASSERT_EQ(loaded.relation->tuple_count(), rel.tuple_count());
  EXPECT_EQ(loaded.relation->live_count(), rel.live_count());
  EXPECT_EQ(loaded.relation->deletion_log(), rel.deletion_log());
  query::DistinctEvaluator ea(rel);
  query::DistinctEvaluator eb(*loaded.relation);
  for (int trial = 0; trial < 8; ++trial) {
    AttrSet s = RandomSubset(rng, n_attrs, 0.5);
    EXPECT_EQ(ea.Count(s), eb.Count(s)) << "trial=" << trial;
  }
}

TEST_P(MutationFuzz, LiveColumnCountsMatchScanAndFreshRebuild) {
  util::Rng rng(seed() + 131);
  const size_t domain = 3 + rng.Below(6);
  const double null_rate = rng.Chance(0.5) ? 0.0 : 0.15;
  Relation rel("mut", MixedSchema());
  for (int step = 0; step < 100; ++step) {
    RandomMutation(rng, &rel, rel.attr_count(), domain, null_rate);
    const std::string where = "step=" + std::to_string(step);
    ExpectLiveStatsMatch(rel, where);
    if (step % 30 == 29) {
      rel.Compact();
      ExpectLiveStatsMatch(rel, where + " compacted");
    }
    if (step % 20 != 15) continue;
    // The load rebuilds the counts from the codes, then replays the
    // deletion log through DeleteRow.
    auto loaded = storage::DeserializeRelation(storage::SerializeRelation(rel));
    ASSERT_TRUE(loaded.ok()) << loaded.error;
    ExpectLiveStatsMatch(*loaded.relation, where + " loaded");
    testsupport::ExpectStatsIdentical(
        query::ComputeColumnStats(*loaded.relation),
        query::ComputeColumnStats(rel), where + " loaded vs live");
    for (int i = 0; i < rel.attr_count(); ++i) {
      EXPECT_EQ(loaded.relation->column(i).live_counts(),
                rel.column(i).live_counts())
          << where << " col=" << i;
    }
  }
}

TEST_P(MutationFuzz, SampledFullCoverageIsBitIdenticalToExactMonitor) {
  // The sampled monitor's differential gate: with capacity at least the
  // number of rows ever appended, Algorithm R never evicts, the sample IS
  // the live set at every check, and the monitor must be observationally
  // indistinguishable from the exact one — same measures (bit-identical
  // doubles), same drift log, and a state that, minus its reservoir,
  // serializes to the exact monitor's state byte for byte.
  util::Rng rng(seed() + 97);
  const int n_attrs = 3;
  const size_t interval = 1 + rng.Below(4);
  Relation rel("mut", IntSchema(n_attrs));
  const std::vector<fd::Fd> fds = {fd::Fd(AttrSet::Of({0}), AttrSet::Of({1})),
                                   fd::Fd(AttrSet::Of({1, 2}),
                                          AttrSet::Of({0}))};
  fd::SchemaMonitor exact(&rel, fds, interval);
  fd::SchemaMonitor sampled(&rel, fds, interval,
                            /*capacity=*/100000,
                            /*seed=*/rng.Below(1u << 20) + 1);
  for (int step = 0; step < 140; ++step) {
    RandomMutation(rng, &rel, n_attrs, /*domain=*/3, /*null_rate=*/0.0);
    if (step % 35 == 34) rel.Compact();  // rebuild path must stay covered
    exact.Poll();
    sampled.Poll();
  }
  ASSERT_EQ(exact.fds().size(), sampled.fds().size());
  for (size_t i = 0; i < exact.fds().size(); ++i) {
    EXPECT_EQ(exact.fds()[i].measures.distinct_x,
              sampled.fds()[i].measures.distinct_x);
    EXPECT_EQ(exact.fds()[i].measures.distinct_xy,
              sampled.fds()[i].measures.distinct_xy);
    EXPECT_EQ(exact.fds()[i].measures.confidence,
              sampled.fds()[i].measures.confidence);
    EXPECT_EQ(exact.fds()[i].measures.goodness,
              sampled.fds()[i].measures.goodness);
    EXPECT_EQ(exact.fds()[i].violated, sampled.fds()[i].violated);
  }
  ASSERT_EQ(exact.drift_log().size(), sampled.drift_log().size());
  for (size_t e = 0; e < exact.drift_log().size(); ++e) {
    EXPECT_EQ(exact.drift_log()[e].kind, sampled.drift_log()[e].kind);
    EXPECT_EQ(exact.drift_log()[e].tuple_count,
              sampled.drift_log()[e].tuple_count);
    EXPECT_FALSE(sampled.drift_log()[e].approx);
  }
  // Full coverage keeps every estimate in the exact regime.
  for (const fd::SampledMeasures& est : sampled.estimates()) {
    EXPECT_FALSE(est.approx);
    EXPECT_EQ(est.sample_rows, est.live_rows);
  }
  // State bytes: minus its reservoir, the sampled monitor's state
  // serializes to exactly the server state an exact monitor writes.
  sql::Database db;
  db.AddRelation(rel);
  fd::MonitorState base = sampled.State();
  ASSERT_TRUE(base.reservoir.has_value());
  base.reservoir.reset();
  EXPECT_EQ(storage::SerializeServerState(db, {{"mut", exact.State()}}),
            storage::SerializeServerState(db, {{"mut", base}}));
  // And the sampled section round-trips losslessly.
  const std::string bytes =
      storage::SerializeServerState(db, {}, {{"mut", sampled.State()}});
  sql::Database back;
  std::vector<storage::ServerMonitorState> monitors;
  std::vector<storage::ServerMonitorState> sampled_states;
  std::string err;
  ASSERT_TRUE(storage::DeserializeServerState(bytes, &back, &monitors, &err,
                                              &sampled_states))
      << err;
  EXPECT_EQ(storage::SerializeServerState(back, monitors, sampled_states),
            bytes);
}

TEST_P(MutationFuzz, SampledCheckpointResumeReplaysIdenticalEstimates) {
  // Partial coverage (tiny reservoir), random mutations, checkpoint at a
  // random boundary: the resumed monitor must replay the identical
  // remaining estimate sequence — bitwise, intervals included.
  util::Rng rng(seed() + 113);
  const int n_attrs = 3;
  Relation rel("mut", IntSchema(n_attrs));
  fd::SchemaMonitor live(&rel, {fd::Fd(AttrSet::Of({0}), AttrSet::Of({1}))},
                         /*check_interval=*/2, /*capacity=*/7,
                         /*seed=*/rng.Below(1u << 20) + 1);
  const int cut = 30 + static_cast<int>(rng.Below(30));
  for (int step = 0; step < cut; ++step) {
    RandomMutation(rng, &rel, n_attrs, /*domain=*/4, /*null_rate=*/0.0);
    live.Poll();
  }
  // Clone the world through server-state bytes: the relation in the
  // catalog section, the monitor and its reservoir in the sampled one.
  sql::Database db;
  db.AddRelation(rel);
  sql::Database cloned;
  std::vector<storage::ServerMonitorState> monitors;
  std::vector<storage::ServerMonitorState> sampled;
  std::string err;
  ASSERT_TRUE(storage::DeserializeServerState(
      storage::SerializeServerState(db, {}, {{"mut", live.State()}}), &cloned,
      &monitors, &err, &sampled))
      << err;
  ASSERT_EQ(sampled.size(), 1u);
  Relation& cloned_rel = cloned.GetMutable("mut");
  fd::SchemaMonitor resumed(&cloned_rel, std::move(sampled[0].state));

  std::vector<double> live_seq, resumed_seq;
  live.OnEstimate([&](size_t, const fd::SampledMeasures& est) {
    live_seq.push_back(est.measures.confidence);
    live_seq.push_back(est.confidence_lo);
    live_seq.push_back(est.confidence_hi);
  });
  resumed.OnEstimate([&](size_t, const fd::SampledMeasures& est) {
    resumed_seq.push_back(est.measures.confidence);
    resumed_seq.push_back(est.confidence_lo);
    resumed_seq.push_back(est.confidence_hi);
  });
  // Identical suffix fed to both, each through its own relation.
  for (int step = 0; step < 40; ++step) {
    std::vector<Value> row = RandomRow(rng, rel.schema(), 4, 0.0);
    rel.AppendRow(row);
    live.Poll();
    cloned_rel.AppendRow(row);
    resumed.Poll();
  }
  live.CheckNow();
  resumed.CheckNow();
  ASSERT_FALSE(live_seq.empty());
  ASSERT_EQ(live_seq.size(), resumed_seq.size());
  for (size_t i = 0; i < live_seq.size(); ++i) {
    EXPECT_EQ(live_seq[i], resumed_seq[i]) << "estimate " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MutationFuzz, ::testing::Range(0, 8));

}  // namespace
}  // namespace fdevolve
