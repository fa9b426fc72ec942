// Plan phase of the repair search: what `EXPLAIN REPAIR` renders.
//
// `PlanRepair` reads the search's rules from the same fd::SearchScope that
// Extend runs by: the clamped target, the pool and depth limit, the
// acceptance test, the cost model, the prune test and the budget-spending
// order. It prices every seed candidate (one-attribute antecedent
// extension) with the `CostModel`, computes its sound cardinality bounds,
// marks the branches the search skips unevaluated (none with the planner
// off), and lists the candidates in the order a budget is spent:
// high-signal-first, cheap-first among ties. Planning only *estimates* —
// no candidate is evaluated. With no budget the executing search keeps
// the fixed-rank frontier order, so the plan is a prediction of work,
// never a change of answers.
#pragma once

#include <string>
#include <vector>

#include "fd/cost_model.h"
#include "fd/fd.h"
#include "fd/measures.h"
#include "fd/repair_search.h"
#include "relation/relation.h"
#include "relation/schema.h"

namespace fdevolve::fd {

/// One seed candidate X∪{attr} -> Y as the planner prices it.
struct PlannedCandidate {
  int attr = -1;             ///< attribute index added to the antecedent
  size_t ndv = 0;            ///< live distinct non-NULL values of the column
  size_t group_slots = 0;    ///< ndv + NULL slot: the max grouping multiplier
  size_t max_group_rows = 0; ///< heaviest live group under this column
  double null_fraction = 0.0;
  double est_cost_ms = 0.0;  ///< CostModel::CandidateCostMs estimate
  /// Upper bound on |π_{X∪{attr}}| (one extension step).
  size_t distinct_bound = 0;
  /// Upper bound on |π_XS| over every superset S ∋ attr within the depth
  /// limit — what the whole branch below this candidate can reach.
  size_t reachable_bound = 0;
  /// Best reachable confidence of the branch: min(1, reachable_bound/|π_XY|).
  double best_confidence = 0.0;
  /// SearchScope::Prunes: the planner is on and best_confidence cannot
  /// meet the target, so the executing search skips this branch without
  /// evaluating it.
  bool prunable = false;
};

/// The plan for one Extend run.
struct RepairPlan {
  Fd fd;
  FdMeasures original;        ///< measures of the FD as declared
  bool already_exact = false; ///< target already met; search would not run
  size_t live_rows = 0;
  int pool_size = 0;          ///< candidate attributes after pool filtering
  int max_depth = 0;          ///< resolved max antecedent additions
  double target_confidence = 1.0;
  bool use_planner = true;
  double budget_ms = 0.0;
  double budget_cost = 0.0;
  /// Modeled cost of evaluating every non-prunable seed candidate once.
  double planned_cost_ms = 0.0;
  /// Seed candidates in budget-spending order (signal desc, cost asc).
  std::vector<PlannedCandidate> candidates;
};

/// Builds the plan without evaluating any candidate. Works on tombstoned
/// relations (stats and measures are live-row exact).
RepairPlan PlanRepair(const relation::Relation& rel, const Fd& fd,
                      const RepairOptions& opts = {});

/// Renders the plan as readable multi-line text (the EXPLAIN output).
std::string DescribePlan(const RepairPlan& plan,
                         const relation::Schema& schema);

}  // namespace fdevolve::fd
