// Extend (§4.3–4.4, Algorithm 3) and FindFDRepairs (Algorithm 1).
//
// Best-first search over antecedent extensions. The frontier is ordered by
// (number of added attributes ascending, candidate rank descending), so the
// first exact FD popped is a *minimal* repair; exhausting the frontier
// enumerates all minimal repairs. Supersets of already-found repairs are
// pruned — they are exact too, but never minimal.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fd/candidate_ranking.h"
#include "fd/cost_model.h"
#include "fd/fd.h"
#include "fd/measures.h"
#include "fd/ordering.h"
#include "relation/relation.h"

namespace fdevolve::fd {

/// \brief How much of the repair space to explore.
enum class SearchMode {
  kFirstRepair,  ///< stop at the first (minimal) repair found
  kAllRepairs,   ///< enumerate all minimal repairs (exponential worst case)
  kTopK,         ///< stop after `top_k` repairs
};

/// \brief Why a search returned (SearchStats::stop_reason).
enum class StopReason {
  kExhausted,       ///< frontier drained: every reachable candidate considered
  kMaxEvaluations,  ///< RepairOptions::max_evaluations cap hit
  kBudget,          ///< latency/cost budget (budget_ms / budget_cost) spent
  kTopK,            ///< requested repair count reached (kFirstRepair / kTopK)
};

/// Short token for logs and EXPLAIN: "exhausted", "max-evaluations",
/// "budget", "top-k".
const char* ToString(StopReason reason);

/// \brief Tuning knobs for one Extend run.
struct RepairOptions {
  SearchMode mode = SearchMode::kAllRepairs;
  size_t top_k = 3;  ///< used by SearchMode::kTopK; 0 means unlimited
                     ///< (equivalent to kAllRepairs)

  /// Maximum number of attributes to add to the antecedent (search depth).
  /// 0 means "up to the whole pool". The paper's algorithm is unbounded;
  /// benches bound it to keep the exponential frontier tractable.
  int max_added_attrs = 0;

  /// Safety valve on total candidate evaluations; 0 = unlimited.
  size_t max_evaluations = 0;

  /// §4.4 extension: when set (>= 0), repairs with |goodness| <= threshold
  /// are preferred. In kFirstRepair mode the search keeps going past a
  /// repair that violates the threshold (recording it as a fallback) until
  /// a within-threshold repair or exhaustion; in other modes the threshold
  /// only affects result ordering.
  int64_t goodness_threshold = -1;

  /// AFD extension (§2's approximate FDs): a candidate is accepted when
  /// its confidence reaches this target. 1.0 (default) demands exactness
  /// (Definition 4); e.g. 0.95 evolves the FD into an approximate FD that
  /// tolerates 5% residual inconsistency — typically a shorter repair.
  double target_confidence = 1.0;

  /// Execution width for candidate evaluation: 0 (default) resolves to
  /// `hardware_concurrency`, 1 runs everything inline on the caller, and
  /// k > 1 fans out across the shared thread pool, whose executors claim
  /// one item at a time. The roots fan out first: π̂_X is refined by Y
  /// into π̂_XY beside the seed candidates' |π_Xa| counts. The expansions
  /// of one depth are then evaluated in waves of max(1, k / 2) two-base
  /// expansions, or 2k one-base expansions at the last level.
  ///
  /// A wave first refines the stripped roots into each expansion's base
  /// partitions (see query::StrippedPartition), one base per item, then
  /// evaluates every candidate against its expansion's bases, which stay
  /// read-only; each executor uses its own slot's scratch. Above the depth
  /// limit an expansion has two bases, π̂_XU and π̂_XUY, and a candidate
  /// costs two counts. At the limit, with `target_confidence` 1 (the last
  /// level), it has one base, π̂_XU, and a candidate costs one pass that
  /// stops at the first row violating exactness: such a node is never
  /// expanded, so nothing but its exactness is read. Candidates are
  /// admitted (budget, dedup, prune) one at a
  /// time in the sequential order and pushed back in that order with the
  /// same `seq` tie-break numbers at every width, before any pop could
  /// reach them. Ranked output — repairs, measures, and all stats except
  /// `elapsed_ms` — is therefore bit-identical for every thread count.
  int threads = 0;

  /// Statistics-driven planning (fd::CostModel): candidates whose sound
  /// cardinality bound proves that no extension of the branch can reach
  /// `target_confidence` are skipped without evaluation (counted in
  /// SearchStats::pruned_by_bound). Planning changes order and work, never
  /// answers: with no budget configured, the repair set and its measures
  /// are bit-identical to the fixed-rank search (use_planner = false) at
  /// every thread count.
  bool use_planner = true;

  /// Wall-clock latency budget in milliseconds; 0 = unlimited. Checked
  /// as each candidate is admitted, so it is best-effort and
  /// timing-dependent: two runs may truncate at different candidates.
  /// With it set, a wave holds a single expansion, so the check sees
  /// every earlier evaluation. Any budget builds the cost model, planner
  /// on or off, and is spent high-signal/cheap-first in the order
  /// EXPLAIN REPAIR prints (see SearchScope).
  double budget_ms = 0.0;

  /// Modeled-cost budget in milliseconds (CostModel::CandidateCostMs
  /// units); 0 = unlimited. Unlike budget_ms this is deterministic: the
  /// same (rel, fd, opts) always truncates at the same candidate.
  double budget_cost = 0.0;

  PoolOptions pool;
};

/// \brief The rules of one Extend run, derived once from (rel, fd, opts).
///
/// Extend searches by them and PlanRepair prints them, so EXPLAIN
/// REPAIR's pruned branches, seed cost and spending order are the
/// search's by construction. The cost model exists whenever the planner
/// or any budget is on: with the planner on its bounds prune branches
/// before evaluation, and with a budget candidates are admitted in
/// CostModel::SpendsBefore order instead of pool order. Works on
/// tombstoned relations (the pool and the model are live-row exact).
class SearchScope {
 public:
  /// `price` builds the cost model even when the search runs without one:
  /// PlanRepair prices every seed candidate whatever the options.
  SearchScope(const relation::Relation& rel, const Fd& fd,
              const RepairOptions& opts, bool price = false);

  /// RepairOptions::target_confidence, clamped to 1.
  double target() const { return target_; }
  /// The candidate attributes: CandidatePool under RepairOptions::pool.
  const relation::AttrSet& pool() const { return pool_; }
  /// Most attributes a repair adds: max_added_attrs capped by the pool
  /// size, or the whole pool when it is 0.
  int max_depth() const { return max_depth_; }

  /// The acceptance test: exactness, decided on integers, at target 1;
  /// confidence >= target below it.
  bool Accepts(const FdMeasures& m) const;

  /// The cost model, or nullptr when the planner and every budget are off
  /// and `price` was not asked for.
  const CostModel* model() const { return model_ ? &*model_ : nullptr; }
  /// True when a budget is set: admission follows SpendsBefore.
  bool budgeted() const { return budgeted_; }

  /// Sound upper bound on |π_XS| over every S within the depth limit
  /// that contains U∪{a}, for the candidate U∪{a} at depth |U| + 1 whose
  /// base has |π_XU| = base_x. Needs the model.
  size_t ReachableBound(size_t base_x, int a, int depth) const;

  /// The planner's prune test: true when the planner is on and no set
  /// below the candidate can reach the target against its base's
  /// |π_XUY| = base_xy, so the branch is skipped unevaluated.
  bool Prunes(size_t base_x, size_t base_xy, int a, int depth) const;

  /// Budget-spending order of two candidates of one base:
  /// CostModel::SpendsBefore at the depth's reach product. Needs the
  /// model.
  bool SpendsBefore(int a, int b, size_t base_x, size_t base_xy,
                    int depth) const;

 private:
  /// The product of the max_depth − depth largest pool slot counts: what
  /// the extensions below a candidate at `depth` can multiply |π| by.
  size_t Reach(int depth) const;

  double target_ = 1.0;
  relation::AttrSet pool_;
  int max_depth_ = 0;
  bool use_planner_ = true;
  bool budgeted_ = false;
  std::optional<CostModel> model_;
  std::vector<size_t> reach_;  ///< CostModel::TopSlotProducts of the pool
};

/// \brief One exact repair: the attribute set added to the original
/// antecedent.
struct Repair {
  relation::AttrSet added;  ///< U such that XU -> Y is exact
  Fd repaired;              ///< XU -> Y
  FdMeasures measures;      ///< confidence (==1) and goodness of XU -> Y
  /// True if the |g| <= goodness_threshold preference was met (always true
  /// when no threshold is configured).
  bool within_goodness_threshold = true;
};

/// \brief Search instrumentation.
///
/// Deterministic across thread counts except `elapsed_ms` (wall time).
struct SearchStats {
  size_t nodes_expanded = 0;        ///< frontier pops that were not exact
  size_t candidates_evaluated = 0;  ///< measure computations performed
  size_t frontier_peak = 0;         ///< max queue size
  size_t pruned_supersets = 0;      ///< skipped supersets of found repairs
  size_t pruned_by_bound = 0;       ///< skipped by the planner's cardinality bound
  /// Why the search returned. kExhausted means the full reachable space
  /// was considered; anything else means a limit truncated it.
  StopReason stop_reason = StopReason::kExhausted;
  /// Modeled cost (CostModel::CandidateCostMs) of the evaluations actually
  /// performed. A model exists whenever the planner or any budget is on,
  /// so this is 0 only with the planner off and no budget.
  double planned_cost_ms = 0.0;
  double elapsed_ms = 0.0;
};

/// \brief Result of Extend on one FD.
struct RepairResult {
  Fd original;
  FdMeasures original_measures;
  bool already_exact = false;
  std::vector<Repair> repairs;  ///< minimal repairs in discovery rank order
  SearchStats stats;

  bool found() const { return !repairs.empty(); }
  /// The designer-facing suggestion: best repair or nullopt.
  std::optional<Repair> best() const {
    if (repairs.empty()) return std::nullopt;
    return repairs.front();
  }
};

/// \brief Runs Algorithm 3 on a single FD.
///
/// \param rel the (drifted) instance; must outlive the call only.
/// \param fd the violated dependency X -> Y to repair.
/// \param opts search mode, depth/budget limits, AFD target, and the
///        `threads` execution width (see RepairOptions::threads).
/// \return all discovered minimal repairs in discovery rank order, plus
///         instrumentation. Deterministic for a given (rel, fd, opts)
///         modulo `stats.elapsed_ms`, for every thread count.
RepairResult Extend(const relation::Relation& rel, const Fd& fd,
                    const RepairOptions& opts = {});

/// \brief Outcome of Algorithm 1 over a whole declared FD set.
struct FindRepairsOutcome {
  /// The FDs in O_F order (§4.1), the order in which `results` are
  /// reported; equal, field by field, to OrderFds(rel, fds, ordering).
  std::vector<OrderedFd> order;
  std::vector<RepairResult> results;   ///< one per FD, in `order` sequence
};

/// \brief Runs Algorithm 1: repairs each violated FD and reports them in
/// O_F order.
///
/// Each Extend run is a pure function of (rel, fd, opts), so the FDs run
/// in declaration order, and the |π_X|, |π_XY| and |π_Y| each run counts
/// for its own FD (RepairResult::original_measures) rank them through
/// RankFds: no second count. `opts.threads` applies to each per-FD Extend
/// run. Throws std::logic_error, as Extend does, on a relation that
/// carries tombstones.
FindRepairsOutcome FindFdRepairs(const relation::Relation& rel,
                                 const std::vector<Fd>& fds,
                                 const RepairOptions& opts = {},
                                 const OrderingOptions& ordering = {});

}  // namespace fdevolve::fd
