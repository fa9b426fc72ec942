#include "fd/repair_search.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <optional>
#include <queue>
#include <unordered_set>

#include "fd/cost_model.h"
#include "query/group_ids.h"
#include "query/stripped_partition.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace fdevolve::fd {
namespace {

/// Frontier node: a candidate antecedent extension awaiting expansion.
struct Node {
  relation::AttrSet added;
  FdMeasures measures;
  uint64_t seq = 0;  ///< insertion order, final determinism tie-break
};

/// Priority: fewer added attributes first (minimality), then the §4.2 rank
/// (CompareRank), then insertion order.
struct NodeWorse {
  bool operator()(const Node& a, const Node& b) const {
    int ca = a.added.Count();
    int cb = b.added.Count();
    if (ca != cb) return ca > cb;
    const int rank = CompareRank(a.measures, b.measures);
    return rank != 0 ? rank > 0 : a.seq > b.seq;
  }
};

}  // namespace

SearchScope::SearchScope(const relation::Relation& rel, const Fd& fd,
                         const RepairOptions& opts, bool price)
    : target_(opts.target_confidence > 1.0 ? 1.0 : opts.target_confidence),
      pool_(CandidatePool(rel, fd, opts.pool)),
      max_depth_(opts.max_added_attrs > 0
                     ? std::min(opts.max_added_attrs, pool_.Count())
                     : pool_.Count()),
      use_planner_(opts.use_planner),
      budgeted_(opts.budget_ms > 0.0 || opts.budget_cost > 0.0) {
  if (use_planner_ || budgeted_ || price) {
    model_.emplace(rel);
    reach_ = model_->TopSlotProducts(pool_, max_depth_ - 1);
  }
}

bool SearchScope::Accepts(const FdMeasures& m) const {
  return target_ >= 1.0 ? m.distinct_x == m.distinct_xy
                        : m.confidence >= target_;
}

size_t SearchScope::Reach(int depth) const {
  assert(depth >= 1 && depth <= max_depth_);
  return reach_[static_cast<size_t>(max_depth_ - depth)];
}

// The bound for candidate C = U∪{a} covers every superset S ⊇ C within the
// depth limit:
//   |π_{X∪S}| ≤ min(n_live, |π_{X∪U}| · slots(a) · products[r])
// with r = max_depth − |C|, where products[r] multiplies the r largest
// pool slot counts (saturating, so never unsound).
size_t SearchScope::ReachableBound(size_t base_x, int a, int depth) const {
  return model_->ReachableDistinctBound(base_x, a, Reach(depth));
}

// |π_{X∪S∪Y}| ≥ |π_{X∪U∪Y}| by monotonicity, so when the bound cannot reach
// the target no superset of C is acceptable and the whole branch can be
// skipped. Pruning never changes answers: an acceptable set has no
// prunable subset (the bound would contradict its acceptability), so its
// evaluation chain survives, and surviving candidates keep their relative
// seq order. Exactness is decided on integers, approximate targets on the
// correctly-rounded ratio.
bool SearchScope::Prunes(size_t base_x, size_t base_xy, int a,
                         int depth) const {
  if (!use_planner_) return false;
  const size_t ub = ReachableBound(base_x, a, depth);
  return target_ >= 1.0 ? ub < base_xy
                        : static_cast<double>(ub) /
                                  static_cast<double>(base_xy) <
                              target_;
}

bool SearchScope::SpendsBefore(int a, int b, size_t base_x, size_t base_xy,
                               int depth) const {
  return model_->SpendsBefore(a, b, base_x, base_xy, Reach(depth));
}

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

  const SearchScope scope(rel, fd, opts);
  const double target = scope.target();
  const relation::AttrSet& pool = scope.pool();
  const std::vector<int> pool_attrs = pool.ToVector();
  const int max_depth = scope.max_depth();

  // The last level: candidates of depth max_depth when the target is
  // exactness. Such a node is never expanded, and a non-exact one is only
  // popped and discarded, for nodes_expanded or pruned_supersets. So its
  // expansion refines π̂_XU alone, and each candidate takes one
  // RefineCountIfDetermines pass against Y's ids (the column's codes for a
  // one-attribute Y, otherwise GroupBy ids built with the roots), which
  // stops at the first violating row. An exact candidate gets the counts
  // the two-count path would give; a violated one gets `violated`, whose
  // confidence 0 sorts it after every exact node of its depth, so no other
  // field of it is ever read. Repairs and stats stay bit-identical.
  auto last_level = [&](const relation::AttrSet& u) {
    return target >= 1.0 && u.Count() + 1 == max_depth;
  };
  const bool seeds_last = last_level(relation::AttrSet());

  // A candidate X∪U∪{a} -> Y above the last level costs two counts,
  // |π_XUa| and |π_XUaY|, and both run on stripped partitions; one at the
  // last level costs a single exactness pass. The roots π̂_X and π̂_XY are
  // built once per search, and their group counts are the original FD's
  // |π_X| and |π_XY|. π̂_X is built on the caller; one fan-out then
  // refines it by Y into π̂_XY while the other executors take the rest of
  // the root work: for a multi-attribute Y, |π_Y| and (when the search has
  // a last level) the GroupBy ids of Y; and |π_Xa| on π̂_X for every pool
  // attribute a, which the seed wave reads instead of counting. The seed
  // counts are taken before the exact check and the seed admission, so a
  // seed that admission drops discards its count; once π̂_XY shows that
  // the FD already meets the target, the seed counts no executor has
  // claimed yet are skipped, since nothing reads them. At a seed level
  // that is the last, RefineCountIfDetermines reads π̂_X alone and no seed
  // count is taken.
  using query::StrippedPartition;
  const int exec_width = util::ResolveThreads(opts.threads);
  std::vector<query::PartitionScratch> slot_scratch;
  const StrippedPartition root_x =
      StrippedPartition::FromGrouping(rel, query::GroupBy(rel, fd.lhs()));
  StrippedPartition root_xy;
  const std::vector<int> rhs_attrs = fd.rhs().ToVector();
  const bool multi_y = rhs_attrs.size() > 1;
  std::vector<uint32_t> rhs_ids;
  size_t y_count = multi_y ? 0 : query::GroupCountBy(rel, fd.rhs());
  // |π_Xa| by attribute a, for the seed wave.
  std::vector<size_t> seed_x(static_cast<size_t>(rel.attr_count()));
  std::atomic<bool> already_met{false};
  {
    const size_t first_seed = multi_y ? 2 : 1;
    const size_t items = first_seed + (seeds_last ? 0 : pool_attrs.size());
    slot_scratch.resize(
        std::min<size_t>(static_cast<size_t>(exec_width), items));
    util::ThreadPool::Global().ParallelFor(
        items, exec_width, [&](int slot, size_t i) {
          query::PartitionScratch& ws =
              slot_scratch[static_cast<size_t>(slot)];
          if (i == 0) {
            root_xy = root_x.Refine(rel, fd.rhs(), ws);
            already_met.store(
                scope.Accepts(MeasuresFromCounts(
                    root_x.group_count(), root_xy.group_count(), 0)),
                std::memory_order_relaxed);
          } else if (i < first_seed) {
            if (target >= 1.0 && max_depth >= 1) {
              query::Grouping y = query::GroupBy(rel, fd.rhs());
              y_count = y.group_count;
              rhs_ids = std::move(y.ids);
            } else {
              y_count = query::GroupCountBy(rel, fd.rhs());
            }
          } else if (!already_met.load(std::memory_order_relaxed)) {
            const int a = pool_attrs[i - first_seed];
            seed_x[static_cast<size_t>(a)] = root_x.RefineCount(rel, a, ws);
          }
        });
  }
  const uint32_t* const y_ids = multi_y
                                    ? rhs_ids.data()
                                    : rel.column(rhs_attrs[0]).codes().data();
  result.original_measures = MeasuresFromCounts(
      root_x.group_count(), root_xy.group_count(), y_count);
  if (scope.Accepts(result.original_measures)) {
    result.already_exact = true;
    result.stats.elapsed_ms = timer.ElapsedMs();
    return result;
  }

  std::priority_queue<Node, std::vector<Node>, NodeWorse> frontier;
  std::unordered_set<relation::AttrSet, relation::AttrSetHash> visited;
  std::vector<relation::AttrSet> found_sets;
  uint64_t seq = 0;

  // Candidate evaluation runs in waves. An expansion (the seed phase or
  // one popped node) admits its candidates `U ∪ {a}` into the pending wave
  // sequentially, with the budget, dedup and planner checks below. A wave
  // is evaluated in two fan-outs across the shared pool: the first refines
  // the roots by each expansion's added attributes U into its bases, one
  // base per item (π̂_XU and π̂_XUY, or π̂_XU alone at the last level); the
  // second evaluates every candidate against its expansion's bases. Each
  // executor refines and counts against its slot's scratch while the roots
  // and bases stay read-only.
  //
  // The frontier pops every node of one depth before any deeper node, and
  // accepted nodes before expanded ones of their depth, so while a wave of
  // depth-d expansions is pending no pop can reach one of its children and
  // done() cannot change. The wave is evaluated before the pop that could:
  // when it is full, when the frontier runs dry, or when the frontier's
  // top is deeper than its expansions. Children are then pushed in
  // admission order with the seq numbers the one-expansion-at-a-time loop
  // assigns, so the frontier — and therefore the ranked output — is
  // bit-identical for every thread count.
  //
  // A wave holds up to max(1, width / 2) two-base expansions above the
  // last level and 2 × width one-base expansions at it: the pool hands out
  // one item at a time, so the extra bases and candidates fill the
  // executors that finish early instead of waiting for the next wave.
  // With a wall-clock budget it holds one expansion, so the clock check
  // sees every earlier evaluation. Capacities are counted in size_t, so no
  // threads value overflows them.
  const size_t width = static_cast<size_t>(exec_width);
  auto wave_capacity = [&](const relation::AttrSet& u) -> size_t {
    if (opts.budget_ms > 0.0) return 1;
    return last_level(u) ? 2 * width : std::max<size_t>(1, width / 2);
  };
  const FdMeasures violated = MeasuresFromCounts(0, 1, y_count);
  // Per expansion: its U, then its bases side by side. Per candidate:
  // U ∪ {a}, a, the index of its expansion, and its measures.
  std::vector<relation::AttrSet> wave_added;
  std::vector<StrippedPartition> wave_bases;
  std::vector<relation::AttrSet> wave_sets;
  std::vector<int> wave_attrs;
  std::vector<size_t> wave_expansion;
  std::vector<FdMeasures> wave_measures;

  // Admits the candidates `base_added ∪ {a}` for each `a` of `attrs` in
  // order; `base_x`/`base_xy` are the parent's |π_XU| and |π_XUY| counts,
  // which seed the planner's bounds. Returns false when a budget stopped
  // the admission.
  std::vector<int> budget_order;
  auto admit = [&](const relation::AttrSet& base_added,
                   const std::vector<int>& attrs, size_t base_x,
                   size_t base_xy) -> bool {
    const size_t pending = wave_sets.size();
    bool budget_hit = false;
    const int depth = base_added.Count() + 1;
    const std::vector<int>* order = &attrs;
    if (scope.budgeted()) {
      // A budget is spent in the order PlanRepair prints: high signal
      // first, cheap first among ties. Reordering shifts seq tie-breaks,
      // so budgeted runs trade the bit-identity guarantee for better use
      // of the budget.
      budget_order = attrs;
      std::stable_sort(budget_order.begin(), budget_order.end(),
                       [&](int a, int b) {
                         return scope.SpendsBefore(a, b, base_x, base_xy,
                                                   depth);
                       });
      order = &budget_order;
    }
    for (int a : *order) {
      // Budget checks before dedup, per candidate — the order the
      // sequential evaluate-and-push used. Pending candidates count as
      // evaluated.
      if (opts.max_evaluations != 0 &&
          result.stats.candidates_evaluated + wave_sets.size() >=
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
      const double cost =
          scope.model() ? scope.model()->CandidateCostMs(a) : 0.0;
      if (opts.budget_cost > 0.0 &&
          result.stats.planned_cost_ms + cost > opts.budget_cost) {
        result.stats.stop_reason = StopReason::kBudget;
        budget_hit = true;
        break;
      }
      relation::AttrSet added = base_added.With(a);
      if (!visited.insert(added).second) continue;  // duplicate set
      if (scope.Prunes(base_x, base_xy, a, depth)) {
        ++result.stats.pruned_by_bound;  // no acceptable set below it
        continue;
      }
      result.stats.planned_cost_ms += cost;
      wave_sets.push_back(std::move(added));
      wave_attrs.push_back(a);
      wave_expansion.push_back(wave_added.size());
    }
    if (wave_sets.size() > pending) wave_added.push_back(base_added);
    // The frontier as the one-at-a-time loop would hold it: the pending
    // candidates are already pushed there.
    result.stats.frontier_peak = std::max(result.stats.frontier_peak,
                                          frontier.size() + wave_sets.size());
    return !budget_hit;
  };

  // Evaluates the pending wave and pushes its candidates in admission
  // order.
  auto evaluate_wave = [&]() {
    if (wave_sets.empty()) return;
    // Bases per expansion: π̂_XU, then π̂_XUY above the last level.
    const bool last = last_level(wave_added.front());
    const size_t per = last ? 1 : 2;
    // One scratch per slot actually used — ParallelFor caps the width at
    // the item count, so an absurd threads value must not allocate past it.
    const size_t slots = std::min<size_t>(
        width, std::max(per * wave_added.size(), wave_sets.size()));
    if (slot_scratch.size() < slots) slot_scratch.resize(slots);

    // The seed expansion's U is empty: its bases are the roots, and the
    // root fan-out already counted its candidates' |π_Xa|. Every other
    // expansion of a wave is of the same depth, so the seed wave is the
    // seed expansion alone.
    const bool seed = wave_added.front().Empty();
    wave_bases.resize(per * wave_added.size());
    auto base = [&](size_t b) -> const StrippedPartition& {
      if (seed) return b % per == 0 ? root_x : root_xy;
      return wave_bases[b];
    };
    if (!seed) {
      util::ThreadPool::Global().ParallelFor(
          wave_bases.size(), exec_width, [&](int slot, size_t b) {
            const StrippedPartition& root = b % per == 0 ? root_x : root_xy;
            wave_bases[b] = root.Refine(rel, wave_added[b / per],
                                        slot_scratch[static_cast<size_t>(slot)]);
          });
    }

    wave_measures.resize(wave_sets.size());
    util::ThreadPool::Global().ParallelFor(
        wave_sets.size(), exec_width, [&](int slot, size_t i) {
          query::PartitionScratch& ws =
              slot_scratch[static_cast<size_t>(slot)];
          const int a = wave_attrs[i];
          const size_t b = per * wave_expansion[i];  // its first base
          if (last) {
            const std::optional<size_t> c =
                base(b).RefineCountIfDetermines(rel, a, y_ids, ws);
            wave_measures[i] =
                c ? MeasuresFromCounts(*c, *c, y_count) : violated;
            return;
          }
          const size_t x = seed ? seed_x[static_cast<size_t>(a)]
                                : base(b).RefineCount(rel, a, ws);
          wave_measures[i] = MeasuresFromCounts(
              x, base(b + 1).RefineCount(rel, a, ws), y_count);
        });

    for (size_t i = 0; i < wave_sets.size(); ++i) {
      ++result.stats.candidates_evaluated;
      frontier.push(Node{std::move(wave_sets[i]), wave_measures[i], seq++});
    }
    wave_added.clear();
    wave_bases.clear();
    wave_sets.clear();
    wave_attrs.clear();
    wave_expansion.clear();
  };

  // Seed the frontier with every single-attribute extension (Algorithm 3
  // line 1: ExtendByOne on the original FD). A budget hit here still falls
  // through to the main loop: already-evaluated exact seeds are accepted
  // before the first expansion attempt stops the search.
  admit(relation::AttrSet(), pool_attrs,
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

  while (true) {
    if (!wave_sets.empty() &&
        (wave_added.size() >= wave_capacity(wave_added.front()) ||
         frontier.empty() ||
         frontier.top().added.Count() > wave_added.front().Count())) {
      evaluate_wave();
    }
    assert(wave_sets.empty() || !done());
    if (frontier.empty() || done()) break;
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

    if (scope.Accepts(node.measures)) {  // accepted: a minimal repair
      Repair r;
      r.added = node.added;
      r.repaired = fd.WithAntecedent(node.added);
      r.measures = node.measures;
      r.within_goodness_threshold =
          !has_threshold || r.measures.abs_goodness() <= threshold;
      have_within_threshold |= r.within_goodness_threshold;
      found_sets.push_back(node.added);
      result.repairs.push_back(std::move(r));
      continue;  // do not expand an exact node (Algorithm 3 line 5-6)
    }

    ++result.stats.nodes_expanded;
    if (node.added.Count() >= max_depth) continue;

    if (!admit(node.added, pool.Minus(node.added).ToVector(),
               node.measures.distinct_x, node.measures.distinct_xy)) {
      evaluate_wave();
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
  // Each Extend is a pure function of (rel, fd, opts), so the FDs run in
  // declaration order and are ranked afterwards by the |π_X|, |π_XY| and
  // |π_Y| their own searches counted, not by a second count of them.
  std::vector<RepairResult> results;
  std::vector<FdMeasures> measures;
  results.reserve(fds.size());
  measures.reserve(fds.size());
  for (const Fd& f : fds) {
    results.push_back(Extend(rel, f, opts));
    measures.push_back(results.back().original_measures);
  }
  FindRepairsOutcome outcome;
  outcome.order = RankFds(fds, measures, ordering);
  outcome.results.reserve(results.size());
  for (const OrderedFd& of : outcome.order) {
    outcome.results.push_back(std::move(results[of.original_index]));
  }
  return outcome;
}

}  // namespace fdevolve::fd
