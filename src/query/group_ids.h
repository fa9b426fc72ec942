// Dense group-id assignment: the shared primitive behind distinct counting
// (CB method) and clustering construction (EB baseline).
//
// A refinement chain combines the current group ids with the dictionary
// codes of a sequence of columns. Every chain is dense or stripped:
//
//   * dense — while the packed radix (group_count * Π strides) is
//     O(tuples), the chain runs as *fused segments*: each segment packs as
//     many consecutive levels as fit into one mixed-radix key
//     (query/kernels.h), maps it to the next id through a direct-indexed
//     scratch array with no hashing at all, and sweeps the rows once — a
//     3-attribute GroupBy is typically ONE pass, not three. The kernel
//     layer dispatches the pass at runtime (baseline scalar or AVX2,
//     selected once per process by query::kernels::Active());
//   * stripped — once the next segment would miss the dense array, the
//     chain finishes on a query::StrippedPartition built from the ids so
//     far (or from the first column's codes): Refine per remaining level.
//     A count-only pass (GroupCountBy, RefineCountBy) builds it over the
//     rows its mask selects and counts against the last level; a
//     materializing pass (GroupBy, RefineBy, GroupRows) refines by every
//     level and writes first-appearance ids from the final partition.
//
// Every pass is one sequential sweep: threads fan out over independent
// work items above this layer (repair-search candidate waves, EB
// candidate scoring), never inside a pass. Both paths assign fresh ids in
// (logical) scan order, so ids are deterministic and dense in order of
// first appearance. Passing a RefineScratch lets long-lived callers
// (DistinctEvaluator, the EB ranking loop, the sampled monitor) reuse the
// scratch buffers across passes; the overloads without one are
// conveniences that pay a fresh allocation.
//
// GroupRows drives the same segment loop over a list of rows instead of
// the whole relation — the sampled monitor groups its reservoir with it —
// by copying the listed rows' codes and refining over the copies.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "query/kernels.h"
#include "query/stripped_partition.h"
#include "relation/relation.h"

namespace fdevolve::query {

/// \brief Partition of the tuples of a relation by equality on an attribute
/// set.
///
/// `ids[t]` is a dense cluster id in [0, group_count); ids are assigned in
/// order of first appearance, so they are deterministic for a given relation.
/// Invariant (enforced by the refinement engine, required of hand-built
/// instances): every id is < group_count.
///
/// Groupings cover every PHYSICAL row of the relation, tombstoned ones
/// included — that is what keeps ids append-stable under deletions.
/// `group_count` therefore counts groups over physical rows; live-only
/// distinct counts come from the count-only entry points below or from
/// query::DistinctEvaluator's per-group live refcounts.
struct Grouping {
  std::vector<uint32_t> ids;   ///< per-tuple dense group id
  size_t group_count = 0;      ///< number of distinct groups
};

/// \brief Reusable scratch buffers for refinement passes.
///
/// Default-constructible and cheap when unused; a long-lived instance makes
/// repeated GroupBy/RefineBy/count calls allocation-free in steady state.
///
/// Thread-safety: a RefineScratch belongs to exactly one logical caller at
/// a time — two threads must not share one.
struct RefineScratch {
  std::vector<uint32_t> dense;     ///< direct-indexed packed-key map
  std::vector<uint32_t> chain_ids; ///< intermediate ids for count-only chains
  std::vector<kernels::Level> levels; ///< per-chain kernel level descriptors
  /// Marks of the stripped partition a chain finishes on.
  PartitionScratch partition;
  /// GroupRows' per-attribute copies of the listed rows' codes.
  std::vector<std::vector<uint32_t>> row_codes;
};

/// \brief Groups all tuples of `rel` by the attributes in `attrs`.
///
/// Empty `attrs` puts every tuple in one group (the projection on zero
/// attributes has exactly one distinct value), matching relational
/// semantics. NULLs compare equal to each other for grouping purposes; the
/// FD layer never passes NULL-able attributes here, but the clustering
/// layer may.
///
/// A single NULL-free attribute is answered by copying the column's
/// dictionary codes (already dense first-appearance ids); otherwise cost is
/// O(tuples * |attrs|) via fused partition refinement.
///
/// \param scratch reusable buffers; the overload without one allocates
///        fresh ones.
Grouping GroupBy(const relation::Relation& rel, const relation::AttrSet& attrs);
Grouping GroupBy(const relation::Relation& rel, const relation::AttrSet& attrs,
                 RefineScratch& scratch);

/// \brief Groups the listed rows of `rel` by the attributes in `attrs`.
///
/// The sample-sized counterpart of GroupBy: `ids[i]` is the group of
/// physical row `rows[i]`, so the result has one id per list entry (not
/// per relation row). Rows may repeat and come in any order; ids are dense
/// in order of first appearance along the list, and equal code tuples get
/// equal ids (NULL equals NULL, as in GroupBy). GroupRows over every row
/// in order reproduces GroupBy's ids and group count exactly. An empty
/// list has no groups; an empty `attrs` puts a non-empty list in one.
///
/// Cost is O(|rows| * |attrs|): the listed rows' codes are copied into
/// `scratch`, then the same dense segments and stripped tail as GroupBy
/// run over the copies. Past the dense limit, a first column whose
/// dictionary has more slots than the list has rows is refined from the
/// one-group partition, whose marks `scratch` keeps: reuse one scratch
/// across calls, or every call over a wide column pays O(dictionary) to
/// grow them.
/// Throws std::invalid_argument if a row id is >= rel.tuple_count().
Grouping GroupRows(const relation::Relation& rel,
                   const std::vector<uint32_t>& rows,
                   const relation::AttrSet& attrs, RefineScratch& scratch);

/// \brief Refines an existing grouping by one extra attribute.
///
/// This is the incremental step the evaluator and the ε_EB ranking use so
/// that evaluating candidate FA : XA -> Y reuses the X grouping instead of
/// regrouping from scratch. Throws std::invalid_argument when `base` does
/// not cover the relation's rows, claims more groups than rows, or holds
/// an id that is not < its group_count.
Grouping RefineBy(const relation::Relation& rel, const Grouping& base,
                  int attr);
Grouping RefineBy(const relation::Relation& rel, const Grouping& base,
                  int attr, RefineScratch& scratch);

/// \brief Refines an existing grouping by a whole attribute set.
Grouping RefineBy(const relation::Relation& rel, const Grouping& base,
                  const relation::AttrSet& attrs);
Grouping RefineBy(const relation::Relation& rel, const Grouping& base,
                  const relation::AttrSet& attrs, RefineScratch& scratch);

/// \brief |GroupBy(rel, attrs).group_count| without materializing
/// `Grouping::ids`, restricted to the relation's LIVE rows.
///
/// A single attribute is answered straight from the column's live counts
/// (live_distinct_count, plus one when a live row is NULL), tombstoned or
/// not, with no per-tuple work at all; longer sets run the refinement
/// chain but skip writing ids on the final pass, and finish on a stripped
/// partition once the packed key misses the dense array. When the
/// relation carries tombstones the final pass (or the partition) skips
/// dead rows — the count is the number of groups with at least one live
/// row — while intermediate materializing passes still cover every
/// physical row, keeping their ids append-stable.
size_t GroupCountBy(const relation::Relation& rel,
                    const relation::AttrSet& attrs);
size_t GroupCountBy(const relation::Relation& rel,
                    const relation::AttrSet& attrs, RefineScratch& scratch);

/// \brief GroupCountBy over the rows a byte mask selects: the number of
/// groups with at least one row whose `mask` byte is nonzero. `mask` holds
/// one byte per physical row [0, rel.tuple_count()); nullptr selects every
/// row. The overloads above are the case mask = the tombstone bitmap. The
/// SQL engine passes its WHERE mask here.
size_t GroupCountBy(const relation::Relation& rel,
                    const relation::AttrSet& attrs, const uint8_t* mask,
                    RefineScratch& scratch);

/// \brief Number of groups RefineBy(rel, base, attrs) would produce with
/// at least one live row, without materializing the refined ids. `base`
/// must cover every physical row (dead included), which is what GroupBy /
/// RefineBy produce. A base whose ids times the first attribute's codes
/// miss the dense array is counted on a stripped partition built from
/// its ids, which costs O(rows + base.group_count). Throws
/// std::invalid_argument as RefineBy does, checking ids on live rows only.
size_t RefineCountBy(const relation::Relation& rel, const Grouping& base,
                     const relation::AttrSet& attrs);
size_t RefineCountBy(const relation::Relation& rel, const Grouping& base,
                     const relation::AttrSet& attrs, RefineScratch& scratch);

/// \brief Number of groups induced jointly by two precomputed groupings,
/// i.e. |C_{A ∪ B}| given C_A and C_B — without touching column data.
///
/// Counts on the stripped partition of `a` refined by `b`'s ids, in
/// O(rows + groups). Throws std::invalid_argument on a size mismatch, a
/// grouping that claims more groups than rows, or an id that is not < its
/// grouping's group_count.
size_t JointGroupCount(const Grouping& a, const Grouping& b);

}  // namespace fdevolve::query
