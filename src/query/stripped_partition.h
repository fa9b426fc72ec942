// Stripped partitions (TANE; Huhtala et al., Computer Journal 1999): the
// counting structure behind the repair search's candidate evaluation and
// the tail of every refinement chain whose packed key misses the dense
// array (query/group_ids.cpp).
//
// The partition π_S groups a relation's live rows by equality on the
// attribute set S. Its *stripped* form keeps only the groups with two or
// more rows and remembers how many singletons it dropped: a singleton can
// never split, so it contributes exactly one group to every refinement of
// S. That makes |π_{S∪{A}}| a pass over the kept rows alone — each kept
// group contributes the number of distinct A codes among its rows — and
// the kept rows shrink as attributes are added, so near-unique bases cost
// almost nothing to count against.
//
// Its three clients:
//   * the repair search builds π̂_X and π̂_XY once per FD and counts every
//     candidate against refinements of them; at its depth limit, where
//     only exactness is read, it refines π̂_X alone and checks each
//     candidate with one RefineCountIfDetermines pass;
//   * the refinement chains of query/group_ids.h build one from the ids of
//     a chain's dense prefix or base (or from its first column's codes)
//     when the next segment would miss the dense array. A count-only
//     chain (GroupCountBy / RefineCountBy, and so DistinctCount, SQL
//     COUNT(DISTINCT ...) and DistinctEvaluator::Count) builds it over the
//     rows its mask selects and counts against the last level; a
//     materializing one (GroupBy, RefineBy, GroupRows) writes the last
//     level's first-appearance ids with RefineIds instead. Both
//     cost O(rows + groups) scratch instead of a hash table of 2n slots;
//   * JointGroupCount (and so the clustering predicates) counts the join
//     of two groupings as one grouping's partition refined by the other's
//     ids.
//
// Unlike query::Grouping, which covers every physical row so its ids stay
// append-stable under the evaluator's incremental maintenance, a stripped
// partition is a read-only snapshot of the selected rows at build time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "relation/relation.h"

namespace fdevolve::query {

struct Grouping;

/// \brief Reusable scratch for StrippedPartition passes: one generation-
/// stamped mark per dictionary slot of the refining attribute.
///
/// A pass reserves fresh generations per group instead of clearing the
/// marks. RefineCount reserves one, and a slot counts as seen in the
/// current group iff its mark equals it. Refine and RefineIds reserve one
/// per row of the group and mark a slot with the group's base plus the
/// index of the slot's subgroup, so the mark also numbers the subgroup; a
/// mark below the base is a slot the group has not seen. The marks grow to
/// the largest dictionary seen and are cleared only when the generation
/// counter would wrap. RefineCountIfDetermines marks as Refine does and
/// keeps each subgroup's first Y id by subgroup index, so its Y ids take
/// one entry per row of the longest group, not one per dictionary slot.
///
/// Thread-safety: one instance per thread. Parallel callers hand each
/// executor slot its own scratch; the partitions themselves are read-only.
struct PartitionScratch {
  std::vector<uint32_t> mark;      ///< slot -> generation last seen in
  /// Refine: subgroup sizes, then write cursors. RefineIds: subgroup -> id.
  std::vector<uint32_t> sizes;
  std::vector<uint32_t> subgroup;  ///< subgroup of each row of the group
  std::vector<uint32_t> rhs;       ///< subgroup -> Y id of its first row
  uint32_t generation = 0;         ///< last generation reserved
};

/// \brief π̂_S: the rows of every group of π_S with at least two selected
/// rows, stored contiguously group after group, plus the number of
/// singleton groups.
///
/// The constructor lays groups out in id order, Refine splits each group
/// in place, and rows ascend within a group, so a partition is a pure
/// function of the ids, the row selection and the chain it was refined
/// by.
class StrippedPartition {
 public:
  /// The partition of an empty relation.
  StrippedPartition() = default;

  /// \brief π̂ of rows [0, n) grouped by raw ids: row t belongs to group
  /// `ids[t]`. `ids == nullptr` puts every row in group 0 (the trivial
  /// one-group base, as in kernels::RefineArgs).
  ///
  /// `mask` holds one byte per row, and a 0 byte leaves the row out;
  /// nullptr selects every row. Rows left out are neither counted nor
  /// checked, and a group with no selected row disappears. Costs two
  /// passes over the ids and O(group_count) scratch. Throws
  /// std::invalid_argument on a selected row whose id is not
  /// < group_count, and std::length_error if n does not fit a 32-bit row
  /// index.
  StrippedPartition(const uint32_t* ids, size_t n, size_t group_count,
                    const uint8_t* mask);

  /// \brief π̂ of the live rows of `rel` under `g`.
  ///
  /// `g` must cover every physical row of `rel`, dead ones included — what
  /// GroupBy, RefineBy and DistinctEvaluator::GroupFor produce. Tombstoned
  /// rows are left out; a group whose rows are all dead disappears.
  /// Throws std::invalid_argument on a size mismatch, otherwise as the
  /// constructor.
  static StrippedPartition FromGrouping(const relation::Relation& rel,
                                        const Grouping& g);

  /// |π_S| over the selected rows.
  size_t group_count() const { return ends_.size() + singletons_; }

  /// Groups of π_S with exactly one selected row.
  size_t singletons() const { return singletons_; }

  /// Rows the partition keeps: every row of a multi-row group.
  size_t row_count() const { return rows_.size(); }

  /// Same layout: the same kept rows in the same order, the same group
  /// ends and singletons, over the same rows.
  bool operator==(const StrippedPartition& o) const {
    return rows_ == o.rows_ && ends_ == o.ends_ &&
           singletons_ == o.singletons_ && physical_rows_ == o.physical_rows_;
  }

  /// \brief |π_{S∪{A}}| over the selected rows, visiting only the kept
  /// rows, where A is one level of codes: `codes[t]` for every row t the
  /// partition was built over, each < `null_slot` or relation::kNullCode.
  /// NULLs compare equal, as in GroupBy.
  size_t RefineCount(const uint32_t* codes, uint32_t null_slot,
                     PartitionScratch& scratch) const;

  /// \brief |π_{S∪{A}}| when S∪{A} → Y holds exactly on the selected rows,
  /// std::nullopt when it does not.
  ///
  /// `codes` and `null_slot` are the level RefineCount takes, and `y[t]`
  /// is row t's Y id: a column's codes (kNullCode included, so NULLs
  /// compare equal, as in GroupBy) or a grouping's ids, compared as raw
  /// values. One pass over the kept rows counts each group's distinct
  /// slots, as RefineCount does, and remembers the Y id each slot first
  /// carried; it returns std::nullopt at the first row whose slot carries
  /// another. A count it returns therefore equals |π_{S∪{A}∪Y}| too — the
  /// repair search's exactness test (Definition 4) at its depth limit,
  /// where nothing else about a candidate is read.
  std::optional<size_t> RefineCountIfDetermines(
      const uint32_t* codes, uint32_t null_slot, const uint32_t* y,
      PartitionScratch& scratch) const;

  /// \brief π̂_{S∪{A}} for the level RefineCount takes: every kept group
  /// split by its codes, subgroups in first-appearance order, single-row
  /// subgroups counted as singletons.
  StrippedPartition Refine(const uint32_t* codes, uint32_t null_slot,
                           PartitionScratch& scratch) const;

  /// \brief Writes the dense first-appearance ids of π_{S∪{A}}, for the
  /// level RefineCount takes, to `ids[0, n)`, n being the rows the
  /// partition was built over, and returns |π_{S∪{A}}|.
  ///
  /// Rows of one group get one id, and ids are numbered in order of each
  /// group's first row — exactly the ids a GroupBy/RefineBy pass assigns
  /// for the same chain. `ids` may alias the ids the partition was built
  /// from. Requires a partition over every row (built without a mask, and
  /// not from a tombstoned relation's grouping); throws std::logic_error
  /// otherwise.
  size_t RefineIds(const uint32_t* codes, uint32_t null_slot, uint32_t* ids,
                   PartitionScratch& scratch) const;

  /// \brief RefineCount by column `attr` of `rel`.
  ///
  /// `rel` must be the relation the partition was built from, unchanged
  /// since; this and the Refine() forms below throw std::invalid_argument
  /// when its row count differs.
  size_t RefineCount(const relation::Relation& rel, int attr,
                     PartitionScratch& scratch) const;

  /// \brief RefineCountIfDetermines by column `attr` of `rel`; `y` holds
  /// one Y id per row of `rel`.
  std::optional<size_t> RefineCountIfDetermines(
      const relation::Relation& rel, int attr, const uint32_t* y,
      PartitionScratch& scratch) const;

  /// \brief Refine by column `attr` of `rel`.
  StrippedPartition Refine(const relation::Relation& rel, int attr,
                           PartitionScratch& scratch) const;

  /// \brief π̂_{S∪attrs}: one Refine per attribute, in index order. An
  /// empty `attrs` returns a copy.
  StrippedPartition Refine(const relation::Relation& rel,
                           const relation::AttrSet& attrs,
                           PartitionScratch& scratch) const;

 private:
  std::vector<uint32_t> rows_;  ///< kept rows, group after group
  std::vector<uint32_t> ends_;  ///< group k spans [ends_[k-1], ends_[k])
  size_t singletons_ = 0;
  size_t physical_rows_ = 0;    ///< rows the partition was built over
};

}  // namespace fdevolve::query
