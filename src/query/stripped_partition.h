// Stripped partitions (TANE; Huhtala et al., Computer Journal 1999): the
// counting structure behind the repair search's candidate evaluation.
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
// Unlike query::Grouping, which covers every physical row so its ids stay
// append-stable under the evaluator's incremental maintenance, a stripped
// partition is a read-only snapshot of the live rows at build time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "query/group_ids.h"
#include "relation/relation.h"

namespace fdevolve::query {

/// \brief Reusable scratch for StrippedPartition passes: one generation-
/// stamped mark per dictionary slot of the refining attribute.
///
/// A pass bumps the generation once per group instead of clearing the
/// marks, so a slot counts as seen in the current group iff its mark
/// equals the current generation. The marks grow to the largest
/// dictionary seen and are cleared only when the generation counter
/// wraps.
///
/// Thread-safety: one instance per thread. Parallel callers hand each
/// chunk its own scratch; the partitions themselves are read-only.
struct PartitionScratch {
  std::vector<uint32_t> mark;      ///< slot -> generation last seen in
  std::vector<uint32_t> local;     ///< slot -> subgroup index (Refine)
  std::vector<uint32_t> sizes;     ///< subgroup sizes, then write cursors
  std::vector<uint32_t> subgroup;  ///< subgroup of each row of the group
  uint32_t generation = 0;
};

/// \brief π̂_S: the rows of every group of π_S with at least two live
/// rows, stored contiguously group after group, plus the number of
/// singleton groups.
///
/// FromGrouping lays groups out in first-appearance order, Refine splits
/// each group in place, and rows ascend within a group, so a partition is
/// a pure function of the relation's encoded state and the chain it was
/// built by.
class StrippedPartition {
 public:
  /// The partition of an empty relation.
  StrippedPartition() = default;

  /// \brief π̂ of the live rows of `rel` under `g`.
  ///
  /// `g` must cover every physical row of `rel`, dead ones included — what
  /// GroupBy, RefineBy and DistinctEvaluator::GroupFor produce. Tombstoned
  /// rows are left out; a group whose rows are all dead disappears.
  /// Throws std::invalid_argument on a size mismatch or an id that is not
  /// < g.group_count, and std::length_error if `rel` has more rows than a
  /// 32-bit row index can address.
  static StrippedPartition FromGrouping(const relation::Relation& rel,
                                        const Grouping& g);

  /// |π_S| over the live rows.
  size_t group_count() const { return ends_.size() + singletons_; }

  /// Groups of π_S with exactly one live row.
  size_t singletons() const { return singletons_; }

  /// Rows the partition keeps: every row of a multi-row group.
  size_t row_count() const { return rows_.size(); }

  /// \brief |π_{S∪{attr}}| over the live rows, visiting only the kept
  /// rows. NULLs compare equal, as in GroupBy.
  ///
  /// `rel` must be the relation the partition was built from, unchanged
  /// since; this and Refine() throw std::invalid_argument when its row
  /// count differs.
  size_t RefineCount(const relation::Relation& rel, int attr,
                     PartitionScratch& scratch) const;

  /// \brief π̂_{S∪{attr}}: every kept group split by `attr`'s codes,
  /// subgroups in first-appearance order, single-row subgroups counted
  /// as singletons.
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
  size_t physical_rows_ = 0;    ///< rel.tuple_count() at build time
};

}  // namespace fdevolve::query
