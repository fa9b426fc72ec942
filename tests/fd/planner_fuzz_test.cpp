// Differential fuzzing of the repair-search planner (fd::CostModel +
// cardinality-bound pruning).
//
// The planner's contract: with no budget configured, pruning changes work,
// never answers — the repair set, its order, and every measure are
// bit-identical to the fixed-rank search (use_planner = false), at every
// thread count and kernel tier. This suite runs randomized NULL-bearing
// and tombstoned instances through both modes and demands exact equality,
// and property-checks the cardinality bounds the pruning rests on.
// Reproducible via --seed=N / FDEVOLVE_SEED.
#include <gtest/gtest.h>

#include <vector>

#include "fd/cost_model.h"
#include "fd/planner.h"
#include "fd/repair_search.h"
#include "query/distinct.h"
#include "query/kernels.h"
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

/// Random relation with NULL-bearing columns (every odd attribute may hold
/// NULLs) — exercises the NULL slot in both the bounds and the kernels.
/// Attribute i draws its values from [0, domains[i]).
Relation RandomRelation(uint64_t seed, const std::vector<size_t>& domains,
                        size_t n_tuples) {
  const int n_attrs = static_cast<int>(domains.size());
  std::vector<relation::Attribute> attrs;
  for (int i = 0; i < n_attrs; ++i) {
    attrs.push_back({"a" + std::to_string(i), DataType::kInt64});
  }
  Relation rel("fuzz", Schema(std::move(attrs)));
  util::Rng rng(seed);
  for (size_t t = 0; t < n_tuples; ++t) {
    std::vector<Value> row;
    row.reserve(static_cast<size_t>(n_attrs));
    for (int i = 0; i < n_attrs; ++i) {
      if (i % 2 == 1 && rng.Below(10) == 0) {
        row.emplace_back(Value::Null());
      } else {
        row.emplace_back(static_cast<int64_t>(
            rng.Below(domains[static_cast<size_t>(i)])));
      }
    }
    rel.AppendRow(row);
  }
  return rel;
}

Relation RandomRelation(uint64_t seed, int n_attrs, size_t n_tuples,
                        size_t domain) {
  return RandomRelation(
      seed, std::vector<size_t>(static_cast<size_t>(n_attrs), domain),
      n_tuples);
}

fd::Fd RandomFd(util::Rng& rng, int n_attrs) {
  const int rhs = static_cast<int>(rng.Below(static_cast<size_t>(n_attrs)));
  AttrSet lhs;
  const int lhs_size = 1 + static_cast<int>(rng.Below(2));
  while (lhs.Count() < lhs_size) {
    const int a = static_cast<int>(rng.Below(static_cast<size_t>(n_attrs)));
    if (a != rhs) lhs.Add(a);
  }
  AttrSet rhs_set;
  rhs_set.Add(rhs);
  return fd::Fd(lhs, rhs_set);
}

/// The no-budget identity invariant: repairs and measures bit-identical;
/// work stats (candidates_evaluated, nodes_expanded, frontier_peak,
/// pruned_by_bound) legitimately differ between modes and are NOT compared.
void ExpectSameRepairs(const fd::RepairResult& expected,
                       const fd::RepairResult& got, const char* what) {
  EXPECT_EQ(got.already_exact, expected.already_exact) << what;
  ASSERT_EQ(got.repairs.size(), expected.repairs.size()) << what;
  for (size_t i = 0; i < expected.repairs.size(); ++i) {
    const fd::Repair& e = expected.repairs[i];
    const fd::Repair& g = got.repairs[i];
    EXPECT_EQ(g.added, e.added) << what << " repair " << i;
    EXPECT_EQ(g.measures.distinct_x, e.measures.distinct_x) << what;
    EXPECT_EQ(g.measures.distinct_xy, e.measures.distinct_xy) << what;
    EXPECT_EQ(g.measures.distinct_y, e.measures.distinct_y) << what;
    EXPECT_EQ(g.measures.confidence, e.measures.confidence) << what;
    EXPECT_EQ(g.measures.goodness, e.measures.goodness) << what;
    EXPECT_EQ(g.within_goodness_threshold, e.within_goodness_threshold)
        << what;
  }
}

class PlannerFuzz : public ::testing::TestWithParam<int> {
 protected:
  uint64_t seed() const { return testsupport::DeriveSeed(GetParam()); }
};

TEST_P(PlannerFuzz, PlannerOnOffSameRepairsAcrossThreads) {
  util::Rng rng(seed());
  for (int round = 0; round < 3; ++round) {
    const int n_attrs = 6 + static_cast<int>(rng.Below(4));
    const size_t n_tuples = 100 + rng.Below(400);
    const size_t domain = 2 + rng.Below(6);
    Relation rel = RandomRelation(seed() + static_cast<uint64_t>(round),
                                  n_attrs, n_tuples, domain);
    fd::Fd f = RandomFd(rng, n_attrs);
    for (auto mode :
         {fd::SearchMode::kFirstRepair, fd::SearchMode::kAllRepairs}) {
      for (double target : {1.0, 0.9}) {
        fd::RepairOptions off;
        off.mode = mode;
        off.max_added_attrs = 2;
        off.target_confidence = target;
        // NULL-bearing attributes join the pool on odd rounds, putting the
        // NULL slot on the bound's hot path.
        off.pool.exclude_nulls = round % 2 == 0;
        off.use_planner = false;
        off.threads = 1;
        fd::RepairOptions on = off;
        on.use_planner = true;
        fd::RepairResult expected = fd::Extend(rel, f, off);
        for (int k : {1, 3}) {
          on.threads = k;
          ExpectSameRepairs(expected, fd::Extend(rel, f, on), "planner-on");
        }
      }
    }
  }
}

TEST_P(PlannerFuzz, TombstonedInstancesSameRepairsAfterCompaction) {
  util::Rng rng(seed() + 7);
  Relation rel = RandomRelation(seed() + 7, 7, 400, 4);
  // Tombstone a third of the rows; Extend requires a compacted instance,
  // but the plan itself must agree with the compacted ground truth.
  for (size_t t = 0; t < rel.tuple_count(); ++t) {
    if (rng.Below(3) == 0) rel.DeleteRow(t);
  }
  Relation compacted = rel.CompactedCopy();
  fd::Fd f = RandomFd(rng, 7);
  fd::RepairOptions off;
  off.max_added_attrs = 2;
  off.use_planner = false;
  off.threads = 1;
  fd::RepairOptions on = off;
  on.use_planner = true;
  fd::RepairResult expected = fd::Extend(compacted, f, off);
  for (int k : {1, 3}) {
    on.threads = k;
    ExpectSameRepairs(expected, fd::Extend(compacted, f, on), "tombstoned");
  }
  // PlanRepair works on the uncompacted relation directly — its measures
  // and live-row count must match the compacted instance exactly.
  fd::RepairPlan plan = fd::PlanRepair(rel, f);
  fd::RepairPlan ground = fd::PlanRepair(compacted, f);
  EXPECT_EQ(plan.live_rows, ground.live_rows);
  EXPECT_EQ(plan.already_exact, ground.already_exact);
  EXPECT_EQ(plan.original.distinct_x, ground.original.distinct_x);
  EXPECT_EQ(plan.original.distinct_xy, ground.original.distinct_xy);
  ASSERT_EQ(plan.candidates.size(), ground.candidates.size());
  for (size_t i = 0; i < plan.candidates.size(); ++i) {
    EXPECT_EQ(plan.candidates[i].attr, ground.candidates[i].attr) << i;
    EXPECT_EQ(plan.candidates[i].reachable_bound,
              ground.candidates[i].reachable_bound)
        << i;
    EXPECT_EQ(plan.candidates[i].prunable, ground.candidates[i].prunable) << i;
  }
}

TEST_P(PlannerFuzz, ForcedBaselineTierSameRepairs) {
  const util::CpuTier before = query::kernels::SelectedTier();
  query::kernels::ForceTierByName("baseline");
  util::Rng rng(seed() + 13);
  Relation rel = RandomRelation(seed() + 13, 6, 300, 3);
  fd::Fd f = RandomFd(rng, 6);
  fd::RepairOptions off;
  off.max_added_attrs = 2;
  off.use_planner = false;
  fd::RepairOptions on = off;
  on.use_planner = true;
  ExpectSameRepairs(fd::Extend(rel, f, off), fd::Extend(rel, f, on),
                    "baseline tier");
  query::kernels::ForceTier(before);
}

TEST_P(PlannerFuzz, BoundSoundnessOnRandomProjections) {
  util::Rng rng(seed() + 23);
  for (int round = 0; round < 2; ++round) {
    Relation rel = RandomRelation(seed() + 23 + static_cast<uint64_t>(round),
                                  6, 200 + rng.Below(300), 3 + rng.Below(5));
    // Tombstones on odd rounds: stats and counts must stay live-row exact.
    if (round % 2 == 1) {
      for (size_t t = 0; t < rel.tuple_count(); ++t) {
        if (rng.Below(4) == 0) rel.DeleteRow(t);
      }
    }
    // Stats and bounds are the planner's own: live-row exact.
    const fd::CostModel model(rel);
    query::DistinctEvaluator eval(rel);
    for (int trial = 0; trial < 20; ++trial) {
      AttrSet s;
      const int s_size = 1 + static_cast<int>(rng.Below(3));
      while (s.Count() < s_size) s.Add(static_cast<int>(rng.Below(6)));
      int a = static_cast<int>(rng.Below(6));
      while (s.Contains(a)) a = static_cast<int>(rng.Below(6));
      const size_t base = eval.Count(s);
      AttrSet extended = s;
      extended.Add(a);
      const size_t grown = eval.Count(extended);
      // Monotone below, bounded above: base <= |pi_{S u {a}}| <= ub.
      EXPECT_GE(grown, base) << "trial " << trial << " + a" << a;
      EXPECT_LE(grown, model.ReachableDistinctBound(base, a, 1))
          << "trial " << trial << " + a" << a;
    }
    // Multi-step reachability: |pi_{S u {a} u E}| is bounded by the
    // branch bound built from the top slot products, for every extension
    // set E the planner's max-depth admits.
    AttrSet pool = AttrSet::Of({0, 1, 2, 3, 4, 5});
    const auto products = model.TopSlotProducts(pool, 3);
    for (int trial = 0; trial < 10; ++trial) {
      AttrSet s;
      s.Add(static_cast<int>(rng.Below(6)));
      int a = static_cast<int>(rng.Below(6));
      while (s.Contains(a)) a = static_cast<int>(rng.Below(6));
      AttrSet all = s;
      all.Add(a);
      const int extras = static_cast<int>(rng.Below(3));
      while (all.Count() < s.Count() + 1 + extras) {
        all.Add(static_cast<int>(rng.Below(6)));
      }
      const size_t bound = model.ReachableDistinctBound(
          eval.Count(s), a, products[static_cast<size_t>(extras)]);
      EXPECT_LE(eval.Count(all), bound)
          << "trial " << trial << " + a" << a << " + " << extras << " extras";
    }
  }
}

// The plan is the search's: with one added attribute and no budget, the
// plan's PRUNED seeds are exactly Extend's pruned_by_bound and the others
// exactly its evaluations, planner on or off (Extend runs on the
// compacted copy of a tombstoned instance, the plan on the instance
// itself). And a budget builds the cost model whatever the planner: with
// a budget_ms that never binds, both modes admit in its spending order,
// so they return the same repairs in the same order. Admission order
// shows in the repair order only between repairs that tie on the §4.2
// rank, so most rounds mix narrow columns with near-unique ones
// (n^2 values), whose repairs often tie at |pi_XA| = n.
TEST_P(PlannerFuzz, PlanPredictsSearchWorkAndBudgetOrder) {
  util::Rng rng(seed() + 59);
  for (int round = 0; round < 6; ++round) {
    const int n_attrs = 6 + static_cast<int>(rng.Below(4));
    const size_t n_tuples = 100 + rng.Below(400);
    std::vector<size_t> domains(static_cast<size_t>(n_attrs),
                                2 + rng.Below(6));
    if (round >= 2) {
      for (size_t& d : domains) {
        d = rng.Below(2) == 0 ? n_tuples * n_tuples : 2 + rng.Below(6);
      }
    }
    Relation rel = RandomRelation(seed() + 59 + static_cast<uint64_t>(round),
                                  domains, n_tuples);
    if (round % 2 == 1) {
      for (size_t t = 0; t < rel.tuple_count(); ++t) {
        if (rng.Below(4) == 0) rel.DeleteRow(t);
      }
    }
    const Relation compacted = rel.CompactedCopy();
    const fd::Fd f = RandomFd(rng, n_attrs);
    for (double target : {1.0, 0.9}) {
      for (bool planner : {true, false}) {
        fd::RepairOptions opts;
        opts.max_added_attrs = 1;
        opts.target_confidence = target;
        opts.use_planner = planner;
        opts.pool.exclude_nulls = round % 3 == 0;
        const fd::RepairPlan plan = fd::PlanRepair(rel, f, opts);
        const fd::RepairResult res = fd::Extend(compacted, f, opts);
        size_t prunable = 0;
        for (const auto& c : plan.candidates) prunable += c.prunable ? 1 : 0;
        if (!planner) {
          EXPECT_EQ(prunable, 0u) << "round " << round;
        }
        EXPECT_EQ(prunable, res.stats.pruned_by_bound)
            << "round " << round << " target " << target << " planner "
            << planner;
        EXPECT_EQ(plan.candidates.size() - prunable,
                  res.stats.candidates_evaluated)
            << "round " << round << " target " << target << " planner "
            << planner;
      }
      fd::RepairOptions off;
      off.max_added_attrs = 2;
      off.target_confidence = target;
      off.budget_ms = 1e9;
      off.use_planner = false;
      fd::RepairOptions on = off;
      on.use_planner = true;
      ExpectSameRepairs(fd::Extend(compacted, f, off),
                        fd::Extend(compacted, f, on), "never-binding budget");
    }
  }
}

TEST_P(PlannerFuzz, CostBudgetIsDeterministicAndRespected) {
  util::Rng rng(seed() + 41);
  Relation rel = RandomRelation(seed() + 41, 8, 500, 3);
  fd::Fd f = RandomFd(rng, 8);
  fd::RepairOptions opts;
  opts.max_added_attrs = 3;
  const double full_cost = [&] {
    fd::RepairResult r = fd::Extend(rel, f, opts);
    return r.stats.planned_cost_ms;
  }();
  if (full_cost <= 0.0) return;  // already exact or everything pruned
  opts.budget_cost = full_cost / 2.0;
  fd::RepairResult first = fd::Extend(rel, f, opts);
  // The modeled spend never exceeds the budget, and every repair the
  // truncated search reports still meets the target.
  EXPECT_LE(first.stats.planned_cost_ms, opts.budget_cost);
  for (const auto& r : first.repairs) {
    EXPECT_EQ(r.measures.distinct_x, r.measures.distinct_xy);
  }
  // Unlike budget_ms, the modeled budget is deterministic: same options,
  // same truncation point — at every thread count.
  for (int k : {1, 3}) {
    fd::RepairOptions rerun = opts;
    rerun.threads = k;
    fd::RepairResult again = fd::Extend(rel, f, rerun);
    ExpectSameRepairs(first, again, "budget rerun");
    EXPECT_EQ(again.stats.stop_reason, first.stats.stop_reason);
    EXPECT_EQ(again.stats.planned_cost_ms, first.stats.planned_cost_ms);
    EXPECT_EQ(again.stats.candidates_evaluated,
              first.stats.candidates_evaluated);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlannerFuzz, ::testing::Range(0, 6));

}  // namespace
}  // namespace fdevolve
