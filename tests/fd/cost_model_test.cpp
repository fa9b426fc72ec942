#include "fd/cost_model.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "fd/planner.h"
#include "fd/repair_search.h"

namespace fdevolve::fd {
namespace {

using relation::AttrSet;
using relation::DataType;
using relation::Relation;
using relation::RelationBuilder;
using relation::Schema;
using relation::Value;

// city determines state except one drifted LA row; zip is constant (its
// branch can never raise |pi_X|), id is unique.
Relation MakeDrifted() {
  Schema schema({{"id", DataType::kInt64},
                 {"city", DataType::kString},
                 {"zip", DataType::kString},
                 {"state", DataType::kString}});
  return RelationBuilder("t", schema)
      .Row({int64_t{1}, "SF", "9", "CA"})
      .Row({int64_t{2}, "SF", "9", "CA"})
      .Row({int64_t{3}, "LA", "9", "CA"})
      .Row({int64_t{4}, "LA", "9", "NV"})
      .Row({int64_t{5}, "NY", "9", "NY"})
      .Build();
}

TEST(CostModelTest, LiveRowsAndSlotsFromRelation) {
  CostModel model(MakeDrifted());
  EXPECT_EQ(model.live_rows(), 5u);
  EXPECT_EQ(model.GroupSlots(0), 5u);  // id: 5 distinct, no NULLs
  EXPECT_EQ(model.GroupSlots(1), 3u);  // city: SF, LA, NY
  EXPECT_EQ(model.GroupSlots(2), 1u);  // zip: constant
}

TEST(CostModelTest, NullSlotCountsTowardGrouping) {
  Schema schema({{"n", DataType::kInt64}});
  Relation rel = RelationBuilder("t", schema)
                     .Row({int64_t{1}})
                     .Row({Value::Null()})
                     .Build();
  CostModel model(rel);
  // One value plus the shared NULL group: adding `n` can at most double
  // the grouping.
  EXPECT_EQ(model.GroupSlots(0), 2u);
}

TEST(CostModelTest, CandidateCostScalesWithSlots) {
  CostModel model(MakeDrifted());
  // Every estimate is positive, and a wider dictionary (more slots) never
  // estimates cheaper than a constant column at equal width.
  EXPECT_GT(model.CandidateCostMs(2), 0.0);
  EXPECT_GT(model.CandidateCostMs(0), model.CandidateCostMs(2));
}

TEST(CostModelTest, TopSlotProductsAreSortedSaturatingPrefixes) {
  CostModel model(MakeDrifted());
  AttrSet pool = AttrSet::Of({0, 1, 2});  // slots 5, 3, 1
  auto products = model.TopSlotProducts(pool, 3);
  ASSERT_EQ(products.size(), 4u);
  EXPECT_EQ(products[0], 1u);
  EXPECT_EQ(products[1], 5u);       // largest
  EXPECT_EQ(products[2], 15u);      // 5 * 3
  EXPECT_EQ(products[3], 15u);      // 5 * 3 * 1
  // Asking for more extensions than the pool holds pads with factor 1.
  auto padded = model.TopSlotProducts(pool, 5);
  ASSERT_EQ(padded.size(), 6u);
  EXPECT_EQ(padded[5], 15u);
}

TEST(CostModelTest, ReachableBoundClampsAndSaturates) {
  CostModel model(MakeDrifted());
  // 3 base groups * 5 slots = 15, clamped to the 5 live rows.
  EXPECT_EQ(model.ReachableDistinctBound(3, 0, 1), 5u);
  // Below the clamp the product is exact: 2 * 1 (zip) * 2 = 4.
  EXPECT_EQ(model.ReachableDistinctBound(2, 2, 2), 4u);
  // Saturating inputs never wrap to a small (unsound) bound.
  EXPECT_EQ(model.ReachableDistinctBound(SIZE_MAX / 2, 0, SIZE_MAX), 5u);
}

TEST(CostModelTest, InjectedStatsConstructor) {
  query::ColumnStats a;
  a.name = "a";
  a.distinct_count = 4;
  a.null_count = 1;
  a.avg_dict_width = 8.0;
  CostModel model({a}, 10);
  EXPECT_EQ(model.live_rows(), 10u);
  EXPECT_EQ(model.GroupSlots(0), 5u);
  EXPECT_EQ(model.ReachableDistinctBound(3, 0, 1), 10u);
}

TEST(PlanRepairTest, ExactFdShortCircuits) {
  Relation rel = MakeDrifted();
  RepairPlan plan =
      PlanRepair(rel, Fd(AttrSet::Of({0}), AttrSet::Of({3})));  // id -> state
  EXPECT_TRUE(plan.already_exact);
  EXPECT_TRUE(plan.candidates.empty());
  std::string text = DescribePlan(plan, rel.schema());
  EXPECT_NE(text.find("already meets target"), std::string::npos);
}

TEST(PlanRepairTest, CandidatesOrderedSignalDescCostAsc) {
  Relation rel = MakeDrifted();
  RepairPlan plan =
      PlanRepair(rel, Fd(AttrSet::Of({1}), AttrSet::Of({3})));  // city -> state
  EXPECT_FALSE(plan.already_exact);
  EXPECT_EQ(plan.live_rows, 5u);
  ASSERT_EQ(plan.candidates.size(), 2u);  // id and zip (state is the RHS)
  // Neither branch is provably stuck (id in the pool makes everything
  // reachable), so both tie at best_confidence 1 and the cheaper column
  // (constant zip, 1-byte dictionary) is spent first.
  EXPECT_FALSE(plan.candidates[0].prunable);
  EXPECT_FALSE(plan.candidates[1].prunable);
  EXPECT_DOUBLE_EQ(plan.candidates[0].best_confidence, 1.0);
  EXPECT_DOUBLE_EQ(plan.candidates[1].best_confidence, 1.0);
  EXPECT_EQ(plan.candidates[0].attr, 2);  // zip: cheaper at equal signal
  EXPECT_EQ(plan.candidates[1].attr, 0);
  EXPECT_LT(plan.candidates[0].est_cost_ms, plan.candidates[1].est_cost_ms);
  EXPECT_DOUBLE_EQ(plan.planned_cost_ms, plan.candidates[0].est_cost_ms +
                                             plan.candidates[1].est_cost_ms);
}

// Drop the id column: the only pool candidate is the constant zip, whose
// branch can never lift |pi_X| = 3 to |pi_XY| = 4.
Relation MakeUnrepairable() {
  Schema schema({{"city", DataType::kString},
                 {"zip", DataType::kString},
                 {"state", DataType::kString}});
  return RelationBuilder("t", schema)
      .Row({"SF", "9", "CA"})
      .Row({"SF", "9", "CA"})
      .Row({"LA", "9", "CA"})
      .Row({"LA", "9", "NV"})
      .Row({"NY", "9", "NY"})
      .Build();
}

TEST(PlanRepairTest, StuckBranchIsMarkedPrunable) {
  Relation rel = MakeUnrepairable();
  RepairPlan plan = PlanRepair(rel, Fd(AttrSet::Of({0}), AttrSet::Of({2})));
  ASSERT_EQ(plan.candidates.size(), 1u);
  EXPECT_TRUE(plan.candidates[0].prunable);
  EXPECT_EQ(plan.candidates[0].reachable_bound, 3u);
  EXPECT_LT(plan.candidates[0].best_confidence, 1.0);
  // Modeled seed cost covers only branches the search will evaluate.
  EXPECT_DOUBLE_EQ(plan.planned_cost_ms, 0.0);
}

TEST(PlanRepairTest, BoundsMatchExecutedSearch) {
  // On depth-1 instances the plan's prunable marks predict the executor's
  // seed pruning exactly — once where nothing prunes, once where all does.
  {
    Relation rel = MakeDrifted();
    Fd fd(AttrSet::Of({1}), AttrSet::Of({3}));
    RepairResult res = Extend(rel, fd);
    EXPECT_EQ(res.stats.pruned_by_bound, 0u);
    ASSERT_TRUE(res.found());
    EXPECT_EQ(res.repairs[0].added, AttrSet::Of({0}));
  }
  {
    Relation rel = MakeUnrepairable();
    Fd fd(AttrSet::Of({0}), AttrSet::Of({2}));
    RepairResult res = Extend(rel, fd);
    EXPECT_EQ(res.stats.pruned_by_bound, 1u);
    EXPECT_EQ(res.stats.candidates_evaluated, 0u);
    EXPECT_FALSE(res.found());
    EXPECT_EQ(res.stats.stop_reason, StopReason::kExhausted);
  }
}

// A -> B with |pi_A| = 3 and |pi_AB| = 5: the constant C can never lift
// |pi_AC| to 5, the unique D can.
Relation MakeConstantAndKey() {
  Schema schema({{"A", DataType::kInt64},
                 {"B", DataType::kInt64},
                 {"C", DataType::kInt64},
                 {"D", DataType::kInt64}});
  return RelationBuilder("t", schema)
      .Row({int64_t{1}, int64_t{1}, int64_t{7}, int64_t{1}})
      .Row({int64_t{1}, int64_t{2}, int64_t{7}, int64_t{2}})
      .Row({int64_t{2}, int64_t{1}, int64_t{7}, int64_t{3}})
      .Row({int64_t{2}, int64_t{2}, int64_t{7}, int64_t{4}})
      .Row({int64_t{3}, int64_t{1}, int64_t{7}, int64_t{5}})
      .Build();
}

TEST(PlanRepairTest, PlanCountsTheSearchSeedWork) {
  // With one added attribute and no budget the search evaluates exactly
  // the seeds the plan does not mark PRUNED, and prunes the rest; with the
  // planner off it prunes nothing, and neither does the plan.
  const Relation rel = MakeConstantAndKey();
  const Fd fd(AttrSet::Of({0}), AttrSet::Of({1}));
  for (bool planner : {true, false}) {
    RepairOptions opts;
    opts.max_added_attrs = 1;
    opts.use_planner = planner;
    const RepairPlan plan = PlanRepair(rel, fd, opts);
    const RepairResult res = Extend(rel, fd, opts);
    size_t prunable = 0;
    double cost = 0.0;  // in pool order, the order the plan sums in
    for (int a : {2, 3}) {
      for (const PlannedCandidate& c : plan.candidates) {
        if (c.attr != a) continue;
        if (c.prunable) {
          ++prunable;
        } else {
          cost += c.est_cost_ms;
        }
      }
    }
    ASSERT_EQ(plan.candidates.size(), 2u);
    EXPECT_EQ(prunable, planner ? 1u : 0u) << planner;
    EXPECT_EQ(prunable, res.stats.pruned_by_bound) << planner;
    EXPECT_EQ(plan.candidates.size() - prunable,
              res.stats.candidates_evaluated)
        << planner;
    EXPECT_EQ(plan.planned_cost_ms, cost) << planner;
    // The search prices its evaluations only when it has a model.
    EXPECT_EQ(res.stats.planned_cost_ms, planner ? cost : 0.0) << planner;
    const std::string text = DescribePlan(plan, rel.schema());
    EXPECT_EQ(text.find("PRUNED") != std::string::npos, planner) << text;
    EXPECT_NE(text.find(planner ? "(1 pruned by bound)"
                                : "(0 pruned by bound)"),
              std::string::npos)
        << text;
  }
}

TEST(PlanRepairTest, PlanWorksOnTombstonedRelations) {
  Relation rel = MakeDrifted();
  rel.DeleteRow(3);  // remove the drifted LA row: city -> state holds again
  RepairPlan plan = PlanRepair(rel, Fd(AttrSet::Of({1}), AttrSet::Of({3})));
  EXPECT_TRUE(plan.already_exact);
  EXPECT_EQ(plan.live_rows, 4u);
}

TEST(PlanRepairTest, TombstonedRelationPlansLikeItsCompactedCopy) {
  // Column c's only NULL is in row 0, which is deleted: the live instance
  // has no NULL in c, so c belongs to the pool as it does in the
  // compacted copy.
  Schema schema({{"x", DataType::kInt64},
                 {"y", DataType::kInt64},
                 {"c", DataType::kInt64},
                 {"u", DataType::kInt64}});
  Relation rel("t", schema);
  rel.AppendRow({int64_t{0}, int64_t{0}, Value::Null(), int64_t{0}});
  for (int64_t t = 1; t <= 40; ++t) {
    rel.AppendRow({Value(t % 4), Value(t % 3), Value(t % 5), Value(t)});
  }
  rel.DeleteRow(0);
  const Fd fd(AttrSet::Of({0}), AttrSet::Of({1}));
  const RepairPlan plan = PlanRepair(rel, fd);
  const RepairPlan fresh = PlanRepair(rel.CompactedCopy(), fd);
  EXPECT_EQ(plan.pool_size, 2);
  EXPECT_EQ(plan.pool_size, fresh.pool_size);
  EXPECT_EQ(plan.max_depth, fresh.max_depth);
  EXPECT_EQ(plan.planned_cost_ms, fresh.planned_cost_ms);
  ASSERT_EQ(plan.candidates.size(), fresh.candidates.size());
  for (size_t i = 0; i < plan.candidates.size(); ++i) {
    const PlannedCandidate& a = plan.candidates[i];
    const PlannedCandidate& b = fresh.candidates[i];
    EXPECT_EQ(a.attr, b.attr) << i;
    EXPECT_EQ(a.ndv, b.ndv) << i;
    EXPECT_EQ(a.group_slots, b.group_slots) << i;
    EXPECT_EQ(a.max_group_rows, b.max_group_rows) << i;
    EXPECT_EQ(a.null_fraction, b.null_fraction) << i;
    EXPECT_EQ(a.est_cost_ms, b.est_cost_ms) << i;
    EXPECT_EQ(a.distinct_bound, b.distinct_bound) << i;
    EXPECT_EQ(a.reachable_bound, b.reachable_bound) << i;
    EXPECT_EQ(a.best_confidence, b.best_confidence) << i;
    EXPECT_EQ(a.prunable, b.prunable) << i;
  }
  EXPECT_EQ(rel.NonNullAttrs(), rel.CompactedCopy().NonNullAttrs());
  EXPECT_EQ(rel.column(2).live_null_count(), 0u);
}

TEST(PlanRepairTest, BudgetedExtendSpendsInPlanOrder) {
  // x -> y fails; adding b (4 values) repairs it, adding a (8 values) does
  // not. Both branches reach best confidence 1, so the plan puts the
  // cheaper b first, and a budget of exactly b's modeled cost must buy b.
  Schema schema({{"x", DataType::kInt64},
                 {"y", DataType::kInt64},
                 {"a", DataType::kInt64},
                 {"b", DataType::kInt64}});
  Relation rel("t", schema);
  for (int64_t i = 0; i < 40; ++i) {
    const int64_t b = (i / 2) % 4;
    rel.AppendRow({Value(i % 2), Value(b), Value((i / 5) % 8), Value(b)});
  }
  const Fd fd(AttrSet::Of({0}), AttrSet::Of({1}));
  RepairOptions opts;
  opts.max_added_attrs = 1;
  const RepairPlan plan = PlanRepair(rel, fd, opts);
  ASSERT_EQ(plan.candidates.size(), 2u);
  EXPECT_EQ(plan.candidates[0].attr, 3);
  EXPECT_EQ(plan.candidates[0].best_confidence, 1.0);
  EXPECT_EQ(plan.candidates[1].best_confidence, 1.0);
  EXPECT_LT(plan.candidates[0].est_cost_ms, plan.candidates[1].est_cost_ms);
  const RepairResult unbudgeted = Extend(rel, fd, opts);
  ASSERT_TRUE(unbudgeted.found());
  EXPECT_EQ(unbudgeted.repairs[0].added, AttrSet::Of({3}));

  opts.budget_cost = plan.candidates[0].est_cost_ms;
  const RepairResult res = Extend(rel, fd, opts);
  EXPECT_EQ(res.stats.candidates_evaluated, 1u);
  EXPECT_EQ(res.stats.stop_reason, StopReason::kBudget);
  ASSERT_EQ(res.repairs.size(), 1u);
  EXPECT_EQ(res.repairs[0].added, AttrSet::Of({3}));
}

TEST(PlanRepairTest, DescribePlanRendersBudgetAndCandidates) {
  Relation rel = MakeDrifted();
  RepairOptions opts;
  opts.budget_ms = 12.5;
  RepairPlan plan =
      PlanRepair(rel, Fd(AttrSet::Of({1}), AttrSet::Of({3})), opts);
  std::string text = DescribePlan(plan, rel.schema());
  EXPECT_NE(text.find("repair plan for"), std::string::npos);
  EXPECT_NE(text.find("+id"), std::string::npos);
  EXPECT_NE(text.find("+zip"), std::string::npos);
  EXPECT_NE(text.find("12.5 ms wall"), std::string::npos);
  RepairPlan unbudgeted =
      PlanRepair(rel, Fd(AttrSet::Of({1}), AttrSet::Of({3})));
  EXPECT_NE(DescribePlan(unbudgeted, rel.schema()).find("budget none"),
            std::string::npos);
  // A provably-stuck branch renders its prune verdict inline.
  Relation stuck = MakeUnrepairable();
  RepairPlan stuck_plan =
      PlanRepair(stuck, Fd(AttrSet::Of({0}), AttrSet::Of({2})));
  EXPECT_NE(DescribePlan(stuck_plan, stuck.schema()).find("PRUNED"),
            std::string::npos);
}

}  // namespace
}  // namespace fdevolve::fd
