#include "fd/planner.h"

#include <algorithm>
#include <sstream>

namespace fdevolve::fd {
namespace {

std::string Round3(double v) {
  std::ostringstream os;
  os.precision(3);
  os << v;
  return os.str();
}

}  // namespace

RepairPlan PlanRepair(const relation::Relation& rel, const Fd& fd,
                      const RepairOptions& opts) {
  const SearchScope scope(rel, fd, opts, /*price=*/true);
  RepairPlan plan;
  plan.fd = fd;
  plan.live_rows = rel.live_count();
  plan.target_confidence = scope.target();
  plan.use_planner = opts.use_planner;
  plan.budget_ms = opts.budget_ms;
  plan.budget_cost = opts.budget_cost;
  plan.original = ComputeMeasures(rel, fd);
  plan.already_exact = scope.Accepts(plan.original);
  plan.pool_size = scope.pool().Count();
  plan.max_depth = scope.max_depth();
  if (plan.already_exact || plan.pool_size == 0) return plan;

  const CostModel& model = *scope.model();
  const size_t x = plan.original.distinct_x;
  const size_t xy = plan.original.distinct_xy;
  for (int a : scope.pool().ToVector()) {
    PlannedCandidate c;
    c.attr = a;
    const query::ColumnStats& s = model.stats(a);
    c.ndv = s.distinct_count;
    c.group_slots = s.group_slots();
    c.max_group_rows = s.max_group_rows;
    c.null_fraction = s.null_fraction;
    c.est_cost_ms = model.CandidateCostMs(a);
    c.distinct_bound = model.ReachableDistinctBound(x, a, 1);
    c.reachable_bound = scope.ReachableBound(x, a, 1);
    c.best_confidence = CostModel::BestConfidence(c.reachable_bound, xy);
    c.prunable = scope.Prunes(x, xy, a, 1);
    if (!c.prunable) plan.planned_cost_ms += c.est_cost_ms;
    plan.candidates.push_back(c);
  }

  // Budget-spending order, the one a budgeted Extend spends in; prunable
  // branches sink.
  std::stable_sort(plan.candidates.begin(), plan.candidates.end(),
                   [&](const PlannedCandidate& a, const PlannedCandidate& b) {
                     if (a.prunable != b.prunable) return !a.prunable;
                     return scope.SpendsBefore(a.attr, b.attr, x, xy, 1);
                   });
  return plan;
}

std::string DescribePlan(const RepairPlan& plan,
                         const relation::Schema& schema) {
  std::ostringstream os;
  os << "repair plan for " << plan.fd.ToString(schema) << "\n";
  os << "  instance: " << plan.live_rows << " live rows, |pi_X|="
     << plan.original.distinct_x << ", |pi_XY|=" << plan.original.distinct_xy
     << ", confidence " << Round3(plan.original.confidence) << ", goodness "
     << plan.original.goodness << "\n";
  os << "  target confidence " << Round3(plan.target_confidence)
     << "; budget ";
  if (plan.budget_ms > 0.0 || plan.budget_cost > 0.0) {
    bool first = true;
    if (plan.budget_ms > 0.0) {
      os << Round3(plan.budget_ms) << " ms wall";
      first = false;
    }
    if (plan.budget_cost > 0.0) {
      os << (first ? "" : ", ") << Round3(plan.budget_cost) << " ms modeled";
    }
  } else {
    os << "none";
  }
  os << "; planner " << (plan.use_planner ? "on" : "off") << "\n";
  if (plan.already_exact) {
    os << "  already meets target; no search needed\n";
    return os.str();
  }
  size_t pruned = 0;
  for (const auto& c : plan.candidates) pruned += c.prunable ? 1u : 0u;
  os << "  search: pool " << plan.pool_size << " candidates, max depth "
     << plan.max_depth << ", seed cost " << Round3(plan.planned_cost_ms)
     << " ms over " << (plan.candidates.size() - pruned) << " candidates ("
     << pruned << " pruned by bound)\n";
  os << "  seed order (signal desc, cost asc):\n";
  int i = 1;
  for (const auto& c : plan.candidates) {
    os << "    " << i++ << ". +" << schema.attr(c.attr).name << " ndv="
       << c.ndv << " slots=" << c.group_slots << " maxgroup="
       << c.max_group_rows;
    if (c.null_fraction > 0.0) os << " nulls=" << Round3(c.null_fraction);
    os << " |pi_XA|<=" << c.distinct_bound << " reach<=" << c.reachable_bound
       << " best-conf=" << Round3(c.best_confidence) << " cost="
       << Round3(c.est_cost_ms) << "ms";
    if (c.prunable) {
      if (plan.target_confidence >= 1.0) {
        os << " PRUNED (reachable " << c.reachable_bound << " < |pi_XY| "
           << plan.original.distinct_xy << ")";
      } else {
        os << " PRUNED (best-conf " << Round3(c.best_confidence)
           << " < target)";
      }
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace fdevolve::fd
