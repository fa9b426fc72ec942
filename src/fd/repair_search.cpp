#include "fd/repair_search.h"

#include <algorithm>
#include <optional>
#include <queue>
#include <unordered_set>

#include "fd/cost_model.h"
#include "query/stripped_partition.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace fdevolve::fd {
namespace {

/// Frontier node: a candidate antecedent extension awaiting expansion.
struct Node {
  relation::AttrSet added;
  double confidence = 0.0;
  uint64_t abs_goodness = 0;
  int64_t goodness = 0;
  size_t distinct_x = 0;
  size_t distinct_xy = 0;
  size_t distinct_y = 0;
  uint64_t seq = 0;  ///< insertion order, final determinism tie-break
};

/// Priority: fewer added attributes first (minimality), then the §4.2 rank
/// (confidence descending, |goodness| ascending), then insertion order.
struct NodeWorse {
  bool operator()(const Node& a, const Node& b) const {
    int ca = a.added.Count();
    int cb = b.added.Count();
    if (ca != cb) return ca > cb;
    if (a.confidence != b.confidence) return a.confidence < b.confidence;
    if (a.abs_goodness != b.abs_goodness) return a.abs_goodness > b.abs_goodness;
    return a.seq > b.seq;
  }
};

FdMeasures MeasuresOf(const Node& n) {
  FdMeasures m;
  m.distinct_x = n.distinct_x;
  m.distinct_xy = n.distinct_xy;
  m.distinct_y = n.distinct_y;
  m.confidence = n.confidence;
  m.goodness = n.goodness;
  m.exact = n.distinct_x == n.distinct_xy;
  return m;
}

}  // namespace

const char* ToString(StopReason reason) {
  switch (reason) {
    case StopReason::kExhausted:
      return "exhausted";
    case StopReason::kMaxEvaluations:
      return "max-evaluations";
    case StopReason::kBudget:
      return "budget";
    case StopReason::kTopK:
      return "top-k";
  }
  return "unknown";
}

RepairResult Extend(const relation::Relation& rel, const Fd& fd,
                    const RepairOptions& opts) {
  relation::RequireNoTombstones(rel, "fd::Extend");
  util::Timer timer;
  RepairResult result;
  result.original = fd;

  const double target =
      opts.target_confidence > 1.0 ? 1.0 : opts.target_confidence;
  auto satisfies_target = [target](size_t x, size_t xy, double confidence) {
    // target == 1 means exactness, decided on integers (no FP tolerance).
    return target >= 1.0 ? x == xy : confidence >= target;
  };

  // Every candidate X∪U∪{a} -> Y costs two counts, |π_XUa| and |π_XUaY|,
  // and both run on stripped partitions. The roots π̂_X and π̂_XY are built
  // once, sequentially, and their group counts are the original FD's
  // |π_X| and |π_XY|.
  using query::StrippedPartition;
  std::vector<query::PartitionScratch> chunk_scratch(1);
  const StrippedPartition root_x =
      StrippedPartition::FromGrouping(rel, query::GroupBy(rel, fd.lhs()));
  const StrippedPartition root_xy =
      root_x.Refine(rel, fd.rhs(), chunk_scratch[0]);
  result.original_measures =
      MeasuresFromCounts(root_x.group_count(), root_xy.group_count(),
                         query::GroupCountBy(rel, fd.rhs()));
  if (satisfies_target(result.original_measures.distinct_x,
                       result.original_measures.distinct_xy,
                       result.original_measures.confidence)) {
    result.already_exact = true;
    result.stats.elapsed_ms = timer.ElapsedMs();
    return result;
  }

  const relation::AttrSet pool = CandidatePool(rel, fd, opts.pool);
  const int max_depth =
      opts.max_added_attrs > 0
          ? std::min(opts.max_added_attrs, pool.Count())
          : pool.Count();

  // Planner state. The cardinality bound for candidate C = base∪{a} covers
  // every superset S ⊇ C within the depth limit:
  //   |π_{X∪S}| ≤ min(n_live, |π_{X∪base}| · slots(a) · products[r])
  // with r = max_depth − |C|, where products[r] multiplies the r largest
  // pool slot counts (saturating, so never unsound). |π_{X∪S∪Y}| ≥
  // |π_{X∪base∪Y}| by monotonicity, so when the bound cannot reach the
  // target no superset of C is acceptable and the whole branch is skipped
  // without evaluation. Pruning never changes answers: an acceptable set
  // has no prunable subset (the bound would contradict its acceptability),
  // so its evaluation chain survives, and surviving candidates keep their
  // relative seq order — the repair list stays bit-identical to the
  // unplanned search.
  std::optional<CostModel> model;
  std::vector<size_t> reach_products;
  if (opts.use_planner || opts.budget_cost > 0.0) {
    model.emplace(rel);
    reach_products = model->TopSlotProducts(pool, max_depth);
  }
  const bool budgeted =
      model && (opts.budget_ms > 0.0 || opts.budget_cost > 0.0);

  std::priority_queue<Node, std::vector<Node>, NodeWorse> frontier;
  std::unordered_set<relation::AttrSet, relation::AttrSetHash> visited;
  std::vector<relation::AttrSet> found_sets;
  uint64_t seq = 0;

  // Candidate evaluation is batched: one batch is the seed phase or one
  // node expansion. A batch refines the roots by the expanded node's added
  // attributes U into its two bases, π̂_XU and π̂_XUY, then fans its
  // candidates out across the shared pool; each chunk counts against its
  // own mark array while the bases stay read-only. Counts are exact
  // integers and results are folded back in batch order with the same
  // budget, dedup, and seq-number semantics at every width, so the
  // frontier — and therefore the ranked output — is bit-identical for
  // every thread count.
  const int exec_width = util::ResolveThreads(opts.threads);
  const size_t y_count = result.original_measures.distinct_y;
  std::vector<relation::AttrSet> batch_sets;
  std::vector<int> batch_attrs;
  std::vector<FdMeasures> batch_measures;

  // Evaluates the candidates `base_added ∪ {a}` for each `a` of `attrs`
  // in order; `base_x`/`base_xy` are the parent's |π_XU| and |π_XUY|
  // counts, which seed the planner's bounds. Returns false when a budget
  // stopped the batch.
  std::vector<int> budget_order;
  auto evaluate_batch = [&](const relation::AttrSet& base_added,
                            const std::vector<int>& attrs, size_t base_x,
                            size_t base_xy) -> bool {
    batch_sets.clear();
    batch_attrs.clear();
    bool budget_hit = false;
    const int depth = base_added.Count() + 1;
    const size_t reach =
        model && depth <= max_depth
            ? reach_products[static_cast<size_t>(max_depth - depth)]
            : 0;
    const std::vector<int>* order = &attrs;
    if (budgeted) {
      // A budget is spent cheap/high-signal-first: reorder the batch by
      // reachable-cardinality bound descending (closer to |π_XUY| = more
      // confidence available), modeled cost ascending, then attribute
      // index. Reordering shifts seq tie-breaks, so budgeted runs trade
      // the bit-identity guarantee for better use of the budget.
      budget_order = attrs;
      std::stable_sort(
          budget_order.begin(), budget_order.end(), [&](int a, int b) {
            const size_t ba = model->ReachableDistinctBound(base_x, a, reach);
            const size_t bb = model->ReachableDistinctBound(base_x, b, reach);
            if (ba != bb) return ba > bb;
            const double ca = model->CandidateCostMs(a);
            const double cb = model->CandidateCostMs(b);
            if (ca != cb) return ca < cb;
            return a < b;
          });
      order = &budget_order;
    }
    for (int a : *order) {
      // Budget checks before dedup, per candidate — the order the
      // sequential evaluate-and-push used.
      if (opts.max_evaluations != 0 &&
          result.stats.candidates_evaluated + batch_sets.size() >=
              opts.max_evaluations) {
        result.stats.stop_reason = StopReason::kMaxEvaluations;
        budget_hit = true;
        break;
      }
      if (opts.budget_ms > 0.0 && timer.ElapsedMs() >= opts.budget_ms) {
        result.stats.stop_reason = StopReason::kBudget;
        budget_hit = true;
        break;
      }
      const double cost = model ? model->CandidateCostMs(a) : 0.0;
      if (opts.budget_cost > 0.0 &&
          result.stats.planned_cost_ms + cost > opts.budget_cost) {
        result.stats.stop_reason = StopReason::kBudget;
        budget_hit = true;
        break;
      }
      relation::AttrSet added = base_added.With(a);
      if (!visited.insert(added).second) continue;  // duplicate set
      if (opts.use_planner && model) {
        const size_t ub = model->ReachableDistinctBound(base_x, a, reach);
        const bool reachable =
            target >= 1.0 ? ub >= base_xy
                          : static_cast<double>(ub) /
                                    static_cast<double>(base_xy) >=
                                target;
        if (!reachable) {  // no acceptable set below this branch
          ++result.stats.pruned_by_bound;
          continue;
        }
      }
      result.stats.planned_cost_ms += cost;
      batch_sets.push_back(std::move(added));
      batch_attrs.push_back(a);
    }

    batch_measures.assign(batch_sets.size(), FdMeasures{});
    if (!batch_sets.empty()) {
      // The batch's bases π̂_XU and π̂_XUY: the roots refined by U.
      StrippedPartition base_x;
      StrippedPartition base_xy;
      if (!base_added.Empty()) {
        base_x = root_x.Refine(rel, base_added, chunk_scratch[0]);
        base_xy = root_xy.Refine(rel, base_added, chunk_scratch[0]);
      }
      const StrippedPartition& px = base_added.Empty() ? root_x : base_x;
      const StrippedPartition& pxy = base_added.Empty() ? root_xy : base_xy;

      // One scratch per chunk actually used — ParallelFor caps the width
      // at the batch size, so an absurd threads value must not allocate
      // past it.
      const size_t chunks = std::min<size_t>(
          static_cast<size_t>(exec_width), batch_sets.size());
      if (chunk_scratch.size() < chunks) chunk_scratch.resize(chunks);
      util::ThreadPool::Global().ParallelFor(
          batch_sets.size(), 1, exec_width,
          [&](int chunk, size_t lo, size_t hi) {
            query::PartitionScratch& ws =
                chunk_scratch[static_cast<size_t>(chunk)];
            for (size_t i = lo; i < hi; ++i) {
              const int a = batch_attrs[i];
              batch_measures[i] = MeasuresFromCounts(
                  px.RefineCount(rel, a, ws), pxy.RefineCount(rel, a, ws),
                  y_count);
            }
          });
    }

    for (size_t i = 0; i < batch_sets.size(); ++i) {
      const FdMeasures& m = batch_measures[i];
      ++result.stats.candidates_evaluated;
      Node n;
      n.added = batch_sets[i];
      n.confidence = m.confidence;
      n.abs_goodness = m.abs_goodness();
      n.goodness = m.goodness;
      n.distinct_x = m.distinct_x;
      n.distinct_xy = m.distinct_xy;
      n.distinct_y = m.distinct_y;
      n.seq = seq++;
      frontier.push(std::move(n));
      result.stats.frontier_peak =
          std::max(result.stats.frontier_peak, frontier.size());
    }
    return !budget_hit;
  };

  // Seed the frontier with every single-attribute extension (Algorithm 3
  // line 1: ExtendByOne on the original FD). A budget hit here still falls
  // through to the main loop: already-evaluated exact seeds are accepted
  // before the first expansion attempt stops the search.
  evaluate_batch(relation::AttrSet(), pool.ToVector(),
                 result.original_measures.distinct_x,
                 result.original_measures.distinct_xy);

  const bool has_threshold = opts.goodness_threshold >= 0;
  const auto threshold = static_cast<uint64_t>(
      has_threshold ? opts.goodness_threshold : 0);
  bool have_within_threshold = false;

  auto done = [&]() {
    switch (opts.mode) {
      case SearchMode::kFirstRepair:
        // With a goodness threshold, a repair outside it is only a
        // fallback; keep searching for one within.
        return has_threshold ? have_within_threshold : !result.repairs.empty();
      case SearchMode::kTopK:
        // top_k == 0 means "unlimited" (same as kAllRepairs); without this
        // the search would stop before evaluating anything and report an
        // exhausted, repair-free result.
        return opts.top_k != 0 && result.repairs.size() >= opts.top_k;
      case SearchMode::kAllRepairs:
        return false;
    }
    return false;
  };

  while (!frontier.empty() && !done()) {
    Node node = frontier.top();
    frontier.pop();

    // Supersets of an already-found repair are exact but not minimal.
    bool superset = false;
    for (const auto& found : found_sets) {
      if (found.SubsetOf(node.added)) {
        superset = true;
        break;
      }
    }
    if (superset) {
      ++result.stats.pruned_supersets;
      continue;
    }

    if (satisfies_target(node.distinct_x, node.distinct_xy,
                         node.confidence)) {  // accepted: a minimal repair
      Repair r;
      r.added = node.added;
      r.repaired = fd.WithAntecedent(node.added);
      r.measures = MeasuresOf(node);
      r.within_goodness_threshold =
          !has_threshold || r.measures.abs_goodness() <= threshold;
      have_within_threshold |= r.within_goodness_threshold;
      found_sets.push_back(node.added);
      result.repairs.push_back(std::move(r));
      continue;  // do not expand an exact node (Algorithm 3 line 5-6)
    }

    ++result.stats.nodes_expanded;
    if (node.added.Count() >= max_depth) continue;

    if (!evaluate_batch(node.added, pool.Minus(node.added).ToVector(),
                        node.distinct_x, node.distinct_xy)) {
      break;
    }
  }

  if (result.stats.stop_reason == StopReason::kExhausted) {
    if (opts.max_evaluations != 0 &&
        result.stats.candidates_evaluated >= opts.max_evaluations) {
      result.stats.stop_reason = StopReason::kMaxEvaluations;
    } else if (!frontier.empty()) {
      // The loop left work behind, so done() stopped it: the requested
      // repair count (kFirstRepair / kTopK) was reached.
      result.stats.stop_reason = StopReason::kTopK;
    }
  }

  // With a goodness threshold, order within-threshold repairs first,
  // preserving rank order inside each class.
  if (has_threshold) {
    std::stable_sort(result.repairs.begin(), result.repairs.end(),
                     [](const Repair& a, const Repair& b) {
                       return a.within_goodness_threshold >
                              b.within_goodness_threshold;
                     });
  }

  result.stats.elapsed_ms = timer.ElapsedMs();
  return result;
}

FindRepairsOutcome FindFdRepairs(const relation::Relation& rel,
                                 const std::vector<Fd>& fds,
                                 const RepairOptions& opts,
                                 const OrderingOptions& ordering) {
  FindRepairsOutcome outcome;
  outcome.order = OrderFds(rel, fds, ordering);
  outcome.results.reserve(outcome.order.size());
  for (const OrderedFd& of : outcome.order) {
    outcome.results.push_back(Extend(rel, of.fd, opts));
  }
  return outcome;
}

}  // namespace fdevolve::fd
