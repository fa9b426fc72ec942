// COUNT(DISTINCT attrs) — the only "SQL" the paper's algorithm needs.
//
// The paper implements confidence/goodness with COUNT(DISTINCT ...) queries
// against MySQL and notes the cost is a sort (O(n log n)) or hash count.
// The library counts by partition refinement; the sort plan lives on as
// the test oracle (tests/support/sort_distinct.h), which bench_query_micro
// also times for the §4.4 comparison.
#pragma once

#include <cstddef>
#include <unordered_map>
#include <vector>

#include "query/group_ids.h"
#include "relation/relation.h"
#include "util/flat_table.h"

namespace fdevolve::query {

/// \brief Strategy used by DistinctCount: partition refinement (dense /
/// stripped partition), the only one.
enum class DistinctStrategy {
  kHash,
};

/// \brief |π_attrs(rel)| — the number of distinct projected tuples over
/// the relation's live rows (tombstoned rows are excluded).
///
/// Empty attrs yields 1 when any live row exists, 0 otherwise.
/// The count is GroupCountBy's: it never materializes group ids, and a
/// single attribute is answered from the column's live counts in O(1),
/// tombstoned or not.
///
/// The strategy and the trailing `int` are ignored; they are kept so that
/// callers that still pass a strategy or a thread count compile. Every
/// pass runs sequentially.
/// \return the distinct count.
size_t DistinctCount(const relation::Relation& rel,
                     const relation::AttrSet& attrs,
                     DistinctStrategy strategy = DistinctStrategy::kHash,
                     int /*ignored*/ = 0);

/// \brief Batched evaluator with a per-instance memo, incrementally
/// maintainable under appends.
///
/// FD ordering, candidate ranking (fd::ExtendByOne), discovery and the
/// schema monitor ask for |π_X|, |π_XY|, |π_XA|, |π_XAY| over many
/// overlapping sets; memoising the groupings turns each new query into one
/// refinement pass. (The repair search counts on query::StrippedPartition
/// instead.)
///
/// Two tiers of memoisation:
///   * GroupFor() materializes and caches full groupings, indexed by
///     popcount so the best cached subset to refine from is found without
///     scanning the whole cache;
///   * Count() is count-only — the final refinement pass never writes ids.
///     It memoises the resulting cardinality, refines from the largest
///     cached grouping, and when more than one attribute is missing it
///     materializes all but the last so sibling queries share the base.
/// Scratch buffers are owned by the evaluator and reused across passes, so
/// steady-state queries allocate only when a grouping enters the cache.
///
/// \par Incremental maintenance (Advance)
/// The evaluator tracks the relation's row watermark
/// (relation::Relation::version()). When rows have been appended since the
/// last query, Advance() — called explicitly or automatically on the next
/// Count()/GroupFor() — extends every cached grouping and count over just
/// the appended suffix: each cached grouping keeps one key→id
/// util::FlatIdTable per attribute of its derivation chain alive, so a new
/// tuple costs one table lookup per chain level (existing key → existing
/// group id, new key → the next fresh id). Because dictionary codes and
/// group ids are append-stable, no cache entry is ever invalidated, and
/// the advanced state is bit-identical to what rebuilding the same query
/// sequence from scratch on the grown relation would produce. Level
/// tables are built lazily on the first Advance (one replay of the
/// prefix), so purely-static workloads pay nothing for them.
///
/// \par Deletions and compaction
/// The evaluator also tracks the relation's deletion log: entries past the
/// ones it has folded are new deletions. Cached groupings keep covering
/// every physical row (their ids never change — deletion does not reassign
/// row ids or codes), and each grows a per-group LIVE REFCOUNT vector the
/// first time a deletion is observed: Count() then answers with the number
/// of groups whose refcount is nonzero. Folding one deleted row into one
/// cached grouping is a single decrement via its maintained ids —
/// O(cached groupings) per deleted row overall, independent of relation
/// size — and appends keep their O(levels) cost (a fresh row increments
/// its group's refcount as its id is assigned). Under tombstones every
/// multi-attribute Count() is routed through a cached grouping, so
/// monitor-style workloads stay O(Δ) per check; the empty set and single
/// attributes read the live row count and the column's live counts,
/// tombstoned or not, and cache nothing.
///
/// A Compact() reassigns physical row ids and codes wholesale; the
/// evaluator detects it via relation::Relation::compactions() and drops
/// every cache entry — Grouping references obtained before a compaction
/// are invalidated (their contents are cleared, not extended). The next
/// query rebuilds from the compacted relation, whose encoded state is
/// bit-identical to a fresh append-only build of the live rows, so
/// post-compaction results equal fresh-rebuild results exactly.
///
/// \par Thread-safety contract
/// An evaluator instance is **single-owner**: Count(), GroupFor(), and
/// Advance() mutate the memo caches, so two threads must never call into
/// the same instance concurrently (including "read-only looking" calls —
/// every query may insert or advance). External synchronization or one
/// evaluator per thread is required; its passes never spawn threads of
/// their own. Cached groupings are stable: their addresses never change
/// and their contents only grow via Advance, so a `const Grouping&` from
/// GroupFor() may be read concurrently as long as no thread is inside
/// Count()/GroupFor()/Advance() and no rows are appended meanwhile.
class DistinctEvaluator {
 public:
  /// \param rel relation queried; must outlive the evaluator. Appends to
  ///        `rel` between queries are folded in incrementally (see class
  ///        comment); the evaluator must be quiescent while rows are
  ///        appended.
  explicit DistinctEvaluator(const relation::Relation& rel);

  /// \brief |π_attrs| over the relation's live rows, with memoisation
  /// (see class comment).
  size_t Count(const relation::AttrSet& attrs);

  /// \brief Memoised grouping for an attribute set (shared with clustering
  /// code). Covers every physical row, tombstoned ones included.
  ///
  /// The returned reference is stable until the relation is compacted:
  /// cache entries are never evicted or moved after insertion, and their
  /// contents are extended in place by Advance() — `Grouping::ids` grows
  /// and `group_count` may increase, but ids already assigned never
  /// change. A relation::Relation::Compact() invalidates every previously
  /// returned reference (the cache is dropped and rebuilt); callers that
  /// snapshot references must not hold them across a compaction.
  const Grouping& GroupFor(const relation::AttrSet& attrs);

  /// \brief Folds relation changes since the last query into every cached
  /// grouping and count: appended rows first (O(appended × chain levels)
  /// per cached grouping, plus a one-time prefix replay per grouping that
  /// has never been advanced before), then newly tombstoned rows from the
  /// deletion log (O(1) per cached grouping per deleted row). A observed
  /// compaction instead resets the caches entirely.
  ///
  /// Count() and GroupFor() call this automatically when the relation's
  /// version, deletion log, or compaction counter has moved, so
  /// explicit calls are only needed to control *when* the work happens.
  /// Throws std::logic_error if the relation shrank without a compaction
  /// (a stale-cache pairing bug — see relation::Relation's class
  /// comment).
  void Advance();

  /// Rows already folded into the caches (== rel().version() after any
  /// query or Advance()).
  size_t watermark() const { return watermark_; }

  /// Number of memoised groupings (exposed for tests / instrumentation).
  size_t cache_size() const { return cache_.size(); }

  /// Total number of grouping/count computations performed (cache misses).
  /// Advance() maintains existing entries and never counts as a miss.
  size_t miss_count() const { return misses_; }

  const relation::Relation& rel() const { return rel_; }

 private:
  /// One memoised grouping plus the derivation record Advance() needs to
  /// extend it: the cached subset it was refined from (if any) and the
  /// per-attribute chain of key→id tables.
  struct CachedGrouping {
    Grouping grouping;

    bool has_base = false;     ///< grouping was refined from a cached base
    relation::AttrSet base;    ///< the (strict-subset) base key, if any
    std::vector<int> gap;      ///< attrs chained on top, ascending order

    /// One refinement level of the chain. `table` maps
    /// (incoming id << 32 | column code) to the id assigned at this level,
    /// in the first-appearance order every refinement pass assigns;
    /// `group_count` is the number of ids handed out so far
    /// (== table.size()).
    struct Level {
      int attr = -1;
      util::FlatIdTable table;
      uint32_t group_count = 0;
    };
    std::vector<Level> levels;  ///< built lazily on the first Advance
    size_t tabled = 0;          ///< rows [0, tabled) folded into `levels`

    /// Per-group live-row refcounts, materialized for every cached
    /// grouping the first time a deletion is observed (empty before
    /// that). `live_groups` is the number of nonzero entries — the
    /// live-row distinct count this grouping answers.
    std::vector<uint32_t> live;
    size_t live_groups = 0;
  };

  struct SubsetMatch {
    const relation::AttrSet* key = nullptr;
    const Grouping* grouping = nullptr;
  };

  /// Largest cached subset of `attrs` (including `attrs` itself), found by
  /// walking the popcount buckets from |attrs| downward.
  SubsetMatch BestCachedSubset(const relation::AttrSet& attrs) const;

  const Grouping& Insert(const relation::AttrSet& attrs, Grouping g,
                         const relation::AttrSet* base_key);

  /// Runs Advance() if the relation's version, deletion log, or
  /// compaction counter moved since the last query; resets the caches
  /// outright when a compaction happened.
  void MaybeAdvance();

  /// Extends one cached grouping to cover rows [0, n), building its level
  /// tables first if this is its first advance. When refcounts are active
  /// (`mutation_seen_`), the newly folded rows — always live, appends
  /// cannot be pre-tombstoned — increment their groups' refcounts.
  void AdvanceGrouping(CachedGrouping& cg, size_t n);

  /// Builds `cg.live` / `cg.live_groups` from scratch by scanning
  /// `cg.grouping.ids` against the relation's tombstone bitmap.
  void BuildLiveRefcounts(CachedGrouping& cg);

  /// Increments refcounts for freshly appended rows [from, to); no-op
  /// before the first observed mutation.
  void ExtendLiveRefcounts(CachedGrouping& cg, size_t from, size_t to);

  /// Folds deletion-log entries [tomb_pos_, end) into every cached
  /// grouping's refcounts; on the first observed mutation builds the
  /// refcounts wholesale instead.
  void FoldDeletions();

  const relation::Relation& rel_;
  std::unordered_map<relation::AttrSet, CachedGrouping, relation::AttrSetHash>
      cache_;
  std::unordered_map<relation::AttrSet, size_t, relation::AttrSetHash> counts_;
  /// Cache keys bucketed by AttrSet::Count() — the subset-search index.
  /// Bucket order is also Advance()'s processing order: a grouping's base
  /// has strictly fewer attributes, so walking buckets ascending advances
  /// every base before its dependents.
  std::vector<std::vector<relation::AttrSet>> by_size_;
  RefineScratch scratch_;
  size_t misses_ = 0;
  size_t watermark_ = 0;  ///< rows folded into the caches so far

  // Mutation tracking (see the class comment's deletion paragraph).
  bool mutation_seen_ = false;    ///< refcounts are materialized
  size_t tomb_pos_ = 0;           ///< deletion-log entries already folded
  size_t compactions_seen_ = 0;   ///< rel_.compactions() snapshot
};

}  // namespace fdevolve::query
