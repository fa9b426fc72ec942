// Statistics-driven cost model for the repair search (in the spirit of
// Hyrise's linear cost model and DuckDB's statistics propagation).
//
// The model turns per-column `query::ColumnStats` into two things the
// planner needs:
//
//   1. A linear per-candidate evaluation-cost estimate. It prices one
//      candidate X∪{A} -> Y as two count-only refinement passes over the
//      live rows (C_X -> C_XA and C_XY -> C_XAY) plus the key/dictionary
//      work proportional to the groups the added column can create. The
//      search itself counts on stripped partitions, which visit only the
//      rows of multi-row groups, and at its last level (the depth limit,
//      exactness as the target) a candidate costs one pass that stops at
//      the first row violating exactness, so these constants no longer
//      describe what it does and await recalibration. They stay one
//      price per candidate whatever its depth, so budget_cost still
//      truncates a search at the same candidate on every run.
//
//   2. Sound cardinality bounds. |π_{S∪{A}}| ≤ min(n_live, |π_S|·slots(A))
//      where slots(A) is A's ndv plus a NULL slot, and projection counts
//      are monotone in the attribute set. Composing the per-attribute
//      factors bounds everything reachable below a branch, so branches
//      whose best reachable confidence cannot meet the target are pruned
//      before evaluation. All bound arithmetic saturates — a product that
//      would overflow clamps to SIZE_MAX and the bound stays sound.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "query/column_stats.h"
#include "relation/attr_set.h"
#include "relation/relation.h"

namespace fdevolve::fd {

class CostModel {
 public:
  /// Computes live-row ColumnStats for every column of `rel`. Tombstones
  /// are fine: the stats describe exactly the live instance.
  explicit CostModel(const relation::Relation& rel);

  /// For tests: inject stats directly.
  CostModel(std::vector<query::ColumnStats> stats, size_t live_rows);

  size_t live_rows() const { return live_rows_; }
  const query::ColumnStats& stats(int attr) const {
    return stats_[static_cast<size_t>(attr)];
  }

  /// Distinct slots attribute `attr` contributes to a grouping product
  /// (ndv + NULL slot). The factor by which adding it can multiply |π_X|.
  size_t GroupSlots(int attr) const { return stats(attr).group_slots(); }

  /// Estimated evaluation cost in milliseconds for one candidate that adds
  /// `attr`: two count-only sweeps over the live rows plus a per-slot
  /// dictionary-width term. Calibrated against bench_query_micro (a
  /// count-only dense refine pass sweeps ~1 ns/tuple on the reference
  /// AVX2 box; key/dictionary work ~0.25 ns/byte).
  double CandidateCostMs(int attr) const;

  /// `products[r]`: the saturating product of the `r` largest group-slot
  /// counts among `pool` — an upper bound on the multiplier any `r`
  /// further pool extensions can contribute. products[0] == 1; the vector
  /// has `max_extra + 1` entries.
  std::vector<size_t> TopSlotProducts(const relation::AttrSet& pool,
                                      int max_extra) const;

  /// Sound upper bound on |π_{base ∪ {attr} ∪ E}| for every extension set
  /// E drawn from the pool with slot-product ≤ `top_slot_product`, given
  /// |π_base| = base_distinct:
  ///   min(live_rows, base_distinct · slots(attr) · top_slot_product)
  size_t ReachableDistinctBound(size_t base_distinct, int attr,
                                size_t top_slot_product) const {
    return std::min(live_rows_,
                    query::SaturatingMul(
                        query::SaturatingMul(base_distinct, GroupSlots(attr)),
                        top_slot_product));
  }

  /// Best confidence any set below a branch can reach, given its
  /// reachable bound and the |π_XY| of its base: min(1, bound / base_xy),
  /// and 1 when base_xy is 0.
  static double BestConfidence(size_t reachable_bound, size_t base_xy) {
    return base_xy == 0
               ? 1.0
               : std::min(1.0, static_cast<double>(reachable_bound) /
                                   static_cast<double>(base_xy));
  }

  /// Budget-spending order of the one-attribute extensions of a base with
  /// |π_base| = base_distinct and |π_{base∪Y}| = base_xy: true when adding
  /// `a` is tried before adding `b`. High signal first (best reachable
  /// confidence descending), cheap first among ties (modeled cost
  /// ascending), then attribute index. PlanRepair's seed order (what
  /// EXPLAIN REPAIR prints) and a budgeted Extend both sort by it.
  bool SpendsBefore(int a, int b, size_t base_distinct, size_t base_xy,
                    size_t top_slot_product) const {
    const double conf_a = BestConfidence(
        ReachableDistinctBound(base_distinct, a, top_slot_product), base_xy);
    const double conf_b = BestConfidence(
        ReachableDistinctBound(base_distinct, b, top_slot_product), base_xy);
    if (conf_a != conf_b) return conf_a > conf_b;
    const double cost_a = CandidateCostMs(a);
    const double cost_b = CandidateCostMs(b);
    if (cost_a != cost_b) return cost_a < cost_b;
    return a < b;
  }

 private:
  std::vector<query::ColumnStats> stats_;
  size_t live_rows_ = 0;
};

}  // namespace fdevolve::fd
