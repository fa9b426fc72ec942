// Differential fuzzing of the incremental (Advance) evaluator path.
//
// The contract under test: a DistinctEvaluator whose relation grows
// between queries answers every query exactly as a fresh evaluator would
// if it replayed the same query sequence on the grown relation from
// scratch — bit-identical group ids and counts, not merely equivalent
// partitions. Randomized append batches cover NULLs (first NULL arriving
// after a dictionary fast-path grouping was cached), brand-new dictionary
// values, empty batches, and batches spanning several checks; the
// SchemaMonitor-level suite checks violation flags for multiple FDs
// against from-scratch recomputation. Reproducible via --seed=N /
// FDEVOLVE_SEED.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "fd/schema_monitor.h"
#include "query/distinct.h"
#include "relation/relation.h"
#include "support/fuzz_seed.h"
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

/// One random row; `domain` grows over time in the caller so appended
/// batches keep introducing never-seen dictionary values.
std::vector<Value> RandomRow(util::Rng& rng, int n_attrs, size_t domain,
                             double null_rate) {
  std::vector<Value> row;
  row.reserve(static_cast<size_t>(n_attrs));
  for (int i = 0; i < n_attrs; ++i) {
    if (rng.Chance(null_rate)) {
      row.push_back(Value::Null());
    } else {
      row.emplace_back(static_cast<int64_t>(rng.Below(domain)));
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

/// A recorded evaluator query, for replaying the exact same sequence (and
/// therefore the exact same cache-derivation chains) into a fresh
/// evaluator.
struct Query {
  enum Kind { kGroupFor, kCount } kind;
  AttrSet attrs;
};

class IncrementalFuzz : public ::testing::TestWithParam<int> {
 protected:
  uint64_t seed() const { return testsupport::DeriveSeed(GetParam()); }
};

// The core differential: interleave random append batches with random
// GroupFor/Count queries against one long-lived evaluator; after every
// round, a fresh evaluator replays the full query log on the grown
// relation and every materialized grouping must match id-for-id.
TEST_P(IncrementalFuzz, AdvanceBitIdenticalToFreshEvaluatorReplay) {
  util::Rng rng(seed());
  const int n_attrs = 3 + static_cast<int>(rng.Below(4));
  Relation rel("inc", IntSchema(n_attrs));
  query::DistinctEvaluator live(rel);
  std::vector<Query> log;

  size_t domain = 2 + rng.Below(4);
  const int rounds = 6;
  for (int round = 0; round < rounds; ++round) {
    // Append a batch: sometimes empty, sometimes NULL-heavy, and with a
    // growing domain so new dictionary codes keep appearing.
    const size_t batch = round % 3 == 2 ? 0 : rng.Below(120);
    const double null_rate = round % 2 == 0 ? 0.0 : 0.25;
    std::vector<std::vector<Value>> rows;
    for (size_t b = 0; b < batch; ++b) {
      rows.push_back(RandomRow(rng, n_attrs, domain, null_rate));
    }
    rel.AppendRows(rows);
    domain += rng.Below(3);  // widen: future rows bring fresh values

    // Query the live evaluator (auto-advances over the new suffix).
    const int queries = 1 + static_cast<int>(rng.Below(4));
    for (int q = 0; q < queries; ++q) {
      AttrSet s = RandomSubset(rng, n_attrs, 0.45);
      Query::Kind kind = rng.Chance(0.5) ? Query::kGroupFor : Query::kCount;
      log.push_back({kind, s});
      if (kind == Query::kGroupFor) {
        live.GroupFor(s);
      } else {
        live.Count(s);
      }
    }

    // Replay the whole log into a fresh evaluator on the grown relation:
    // same query order => same cache-derivation chains => the maintained
    // state must be bit-identical, and both must match the sort-strategy
    // ground truth.
    query::DistinctEvaluator fresh(rel);
    for (const Query& q : log) {
      if (q.kind == Query::kGroupFor) {
        const query::Grouping& a = live.GroupFor(q.attrs);
        const query::Grouping& b = fresh.GroupFor(q.attrs);
        ASSERT_EQ(a.group_count, b.group_count)
            << "round=" << round << " attrs=" << q.attrs.Count();
        ASSERT_EQ(a.ids, b.ids)
            << "round=" << round << " attrs=" << q.attrs.Count();
      } else {
        ASSERT_EQ(live.Count(q.attrs), fresh.Count(q.attrs))
            << "round=" << round << " attrs=" << q.attrs.Count();
      }
      EXPECT_EQ(live.Count(q.attrs),
                query::DistinctCount(rel, q.attrs,
                                     query::DistinctStrategy::kSort))
          << "round=" << round;
    }
    EXPECT_EQ(live.watermark(), rel.version());
  }
}

// A NULL arriving *after* a single-attribute grouping was cached is the
// sharpest edge: the cached grouping came from the dictionary fast path
// (ids == codes), while a rebuild would route through a refinement pass.
// Both must agree once the suffix holds NULLs and new values.
TEST_P(IncrementalFuzz, FirstNullAfterDictionaryFastPathGrouping) {
  util::Rng rng(seed() + 17);
  Relation rel("nulledge", IntSchema(2));
  for (int t = 0; t < 40; ++t) {
    rel.AppendRow({static_cast<int64_t>(rng.Below(5)),
                   static_cast<int64_t>(rng.Below(3))});
  }
  query::DistinctEvaluator live(rel);
  AttrSet a0 = AttrSet::Of({0});
  const query::Grouping& g = live.GroupFor(a0);  // dictionary fast path
  ASSERT_EQ(g.ids, rel.column(0).codes());

  // Suffix: NULLs interleaved with brand-new values.
  for (int t = 0; t < 30; ++t) {
    rel.AppendRow({rng.Chance(0.4) ? Value::Null()
                                   : Value(static_cast<int64_t>(rng.Below(9))),
                   static_cast<int64_t>(rng.Below(3))});
  }
  const query::Grouping& adv = live.GroupFor(a0);
  query::DistinctEvaluator fresh(rel);
  const query::Grouping& reb = fresh.GroupFor(a0);
  EXPECT_EQ(adv.group_count, reb.group_count);
  EXPECT_EQ(adv.ids, reb.ids);
  EXPECT_EQ(live.Count(a0),
            query::DistinctCount(rel, a0, query::DistinctStrategy::kSort));
}

// Monitor-level differential: incremental violation flags and measures for
// several FDs must equal a from-scratch recomputation after every batch.
TEST_P(IncrementalFuzz, MonitorFlagsMatchFromScratchRecomputation) {
  util::Rng rng(seed() + 31);
  const int n_attrs = 4;
  const Schema schema = IntSchema(n_attrs);

  // Seed instance: small domains so FDs start exact reasonably often.
  Relation seed_rel("mon", schema);
  for (int t = 0; t < 20; ++t) {
    seed_rel.AppendRow(RandomRow(rng, n_attrs, 3, 0.0));
  }
  Relation shadow("mon", schema);  // the from-scratch copy
  for (size_t t = 0; t < seed_rel.tuple_count(); ++t) {
    std::vector<Value> row;
    for (int a = 0; a < n_attrs; ++a) row.push_back(seed_rel.Get(t, a));
    shadow.AppendRow(row);
  }

  const std::vector<fd::Fd> fds = {
      fd::Fd::Parse("a0 -> a1", schema),
      fd::Fd::Parse("a2 -> a3", schema),
      fd::Fd::Parse("a0, a2 -> a3", schema)};
  const size_t interval = 1 + rng.Below(5);
  fd::SchemaMonitor mon(&seed_rel, fds, interval);

  for (int round = 0; round < 8; ++round) {
    const size_t batch = round % 4 == 3 ? 0 : rng.Below(25);
    const double null_rate = round % 2 == 0 ? 0.0 : 0.15;
    std::vector<std::vector<Value>> rows;
    for (size_t b = 0; b < batch; ++b) {
      rows.push_back(RandomRow(rng, n_attrs, 3 + static_cast<size_t>(round),
                               null_rate));
    }
    seed_rel.AppendRows(rows);
    mon.Poll();
    shadow.AppendRows(rows);
    mon.CheckNow();  // align the two paths regardless of interval phase

    query::DistinctEvaluator scratch(shadow);
    for (size_t i = 0; i < fds.size(); ++i) {
      const fd::FdMeasures expect = ComputeMeasures(scratch, fds[i]);
      const fd::MonitoredFd& got = mon.fds()[i];
      ASSERT_EQ(got.measures.distinct_x, expect.distinct_x)
          << "round=" << round << " fd=" << i;
      ASSERT_EQ(got.measures.distinct_xy, expect.distinct_xy)
          << "round=" << round << " fd=" << i;
      ASSERT_EQ(got.measures.distinct_y, expect.distinct_y)
          << "round=" << round << " fd=" << i;
      // Same integer counts through the same MeasuresFromCounts =>
      // bit-identical doubles.
      ASSERT_EQ(got.measures.confidence, expect.confidence);
      ASSERT_EQ(got.measures.goodness, expect.goodness);
      ASSERT_EQ(got.violated, !expect.exact) << "round=" << round << " fd=" << i;
    }
  }
}

// Advance on a no-growth relation is a strict no-op, including for
// count-only memos.
TEST_P(IncrementalFuzz, NoGrowthAdvanceIsNoop) {
  util::Rng rng(seed() + 47);
  Relation rel("noop", IntSchema(3));
  for (int t = 0; t < 50; ++t) {
    rel.AppendRow(RandomRow(rng, 3, 4, 0.1));
  }
  query::DistinctEvaluator eval(rel);
  AttrSet s = AttrSet::Of({0, 2});
  const size_t count = eval.Count(s);
  const size_t misses = eval.miss_count();
  const size_t cached = eval.cache_size();
  eval.Advance();
  eval.Advance();
  EXPECT_EQ(eval.Count(s), count);
  EXPECT_EQ(eval.miss_count(), misses);
  EXPECT_EQ(eval.cache_size(), cached);
  EXPECT_EQ(eval.watermark(), rel.version());
}

// An evaluator constructed on an empty relation must grow its cached
// groupings from nothing.
TEST_P(IncrementalFuzz, EvaluatorBuiltOnEmptyRelationAdvances) {
  util::Rng rng(seed() + 59);
  Relation rel("fromempty", IntSchema(3));
  query::DistinctEvaluator live(rel);
  AttrSet s01 = AttrSet::Of({0, 1});
  AttrSet s012 = AttrSet::Of({0, 1, 2});
  EXPECT_EQ(live.GroupFor(s01).group_count, 0u);
  EXPECT_EQ(live.Count(s012), 0u);

  std::vector<std::vector<Value>> rows;
  for (int t = 0; t < 60; ++t) rows.push_back(RandomRow(rng, 3, 4, 0.2));
  rel.AppendRows(rows);

  query::DistinctEvaluator fresh(rel);
  fresh.GroupFor(s01);
  fresh.Count(s012);
  EXPECT_EQ(live.GroupFor(s01).ids, fresh.GroupFor(s01).ids);
  EXPECT_EQ(live.GroupFor(s01).group_count, fresh.GroupFor(s01).group_count);
  EXPECT_EQ(live.Count(s012), fresh.Count(s012));
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalFuzz, ::testing::Range(0, 8));

}  // namespace
}  // namespace fdevolve
