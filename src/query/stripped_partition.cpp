#include "query/stripped_partition.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

#include "query/group_ids.h"

namespace fdevolve::query {
namespace {

/// Marks a singleton: the write cursor of a group that keeps no rows, and
/// RefineIds' subgroup for a row no kept group holds.
constexpr uint32_t kSkip = std::numeric_limits<uint32_t>::max();

void CheckRelation(const relation::Relation& rel, size_t physical_rows,
                   const char* where) {
  if (rel.tuple_count() != physical_rows) {
    throw std::invalid_argument(std::string(where) +
                                ": relation is not the one the partition "
                                "was built from");
  }
}

/// Grows the scratch marks to `slots` entries. New entries hold 0, which
/// no live generation equals.
void PrepareMarks(PartitionScratch& s, size_t slots) {
  if (s.mark.size() < slots) s.mark.resize(slots, 0u);
}

/// Starts a new group: reserves `count` consecutive generations, which no
/// mark holds yet, and returns the first. The marks are cleared when the
/// counter would wrap.
uint32_t ReserveGenerations(PartitionScratch& s, size_t count) {
  if (count > std::numeric_limits<uint32_t>::max() - s.generation) {
    std::fill(s.mark.begin(), s.mark.end(), 0u);
    s.generation = 0;
  }
  const uint32_t base = s.generation + 1;
  s.generation += static_cast<uint32_t>(count);
  return base;
}

}  // namespace

StrippedPartition::StrippedPartition(const uint32_t* ids, size_t n,
                                     size_t group_count, const uint8_t* mask)
    : physical_rows_(n) {
  if (n >= kSkip) {
    throw std::length_error(
        "StrippedPartition: too many rows for 32-bit indices");
  }
  // Selected rows per group.
  std::vector<uint32_t> cursor(group_count, 0u);
  for (size_t t = 0; t < n; ++t) {
    if (mask != nullptr && mask[t] == 0) continue;
    const uint32_t id = ids == nullptr ? 0 : ids[t];
    if (id >= group_count) {
      throw std::invalid_argument("StrippedPartition: group id out of range");
    }
    ++cursor[id];
  }

  // Lay the multi-row groups out in id order, turning each size into the
  // group's write cursor.
  uint32_t offset = 0;
  for (uint32_t& c : cursor) {
    if (c <= 1) {
      singletons_ += c;
      c = kSkip;
      continue;
    }
    const uint32_t start = offset;
    offset += c;
    ends_.push_back(offset);
    c = start;
  }
  rows_.resize(offset);
  for (size_t t = 0; t < n; ++t) {
    if (mask != nullptr && mask[t] == 0) continue;
    uint32_t& c = cursor[ids == nullptr ? 0 : ids[t]];
    if (c != kSkip) rows_[c++] = static_cast<uint32_t>(t);
  }
}

StrippedPartition StrippedPartition::FromGrouping(const relation::Relation& rel,
                                                  const Grouping& g) {
  if (g.ids.size() != rel.tuple_count()) {
    throw std::invalid_argument(
        "StrippedPartition::FromGrouping: grouping size mismatch");
  }
  return StrippedPartition(
      g.ids.data(), g.ids.size(), g.group_count,
      rel.has_tombstones() ? rel.live_bitmap().data() : nullptr);
}

size_t StrippedPartition::RefineCount(const uint32_t* codes,
                                      uint32_t null_slot,
                                      PartitionScratch& scratch) const {
  // kNullCode is the largest u32, so min() folds it onto the NULL slot
  // and leaves every real code where it is.
  PrepareMarks(scratch, size_t{null_slot} + 1);
  uint32_t* mark = scratch.mark.data();

  size_t count = singletons_;
  size_t begin = 0;
  for (const uint32_t end : ends_) {
    const uint32_t gen = ReserveGenerations(scratch, 1);
    // Branch-free: a slot's first row in the group counts, every row
    // re-marks it.
    for (size_t i = begin; i < end; ++i) {
      const uint32_t slot = std::min(codes[rows_[i]], null_slot);
      count += mark[slot] != gen;
      mark[slot] = gen;
    }
    begin = end;
  }
  return count;
}

std::optional<size_t> StrippedPartition::RefineCountIfDetermines(
    const uint32_t* codes, uint32_t null_slot, const uint32_t* y,
    PartitionScratch& scratch) const {
  PrepareMarks(scratch, size_t{null_slot} + 1);
  uint32_t* mark = scratch.mark.data();
  std::vector<uint32_t>& first_y = scratch.rhs;

  size_t count = singletons_;
  size_t begin = 0;
  for (const uint32_t end : ends_) {
    // Marks work as in Refine: the base plus the slot's subgroup index, so
    // each subgroup's first Y id sits in a vector as long as the group.
    const size_t len = end - begin;
    const uint32_t base = ReserveGenerations(scratch, len);
    if (first_y.size() < len) first_y.resize(len);
    uint32_t next = base;
    for (size_t i = begin; i < end; ++i) {
      const uint32_t t = rows_[i];
      const uint32_t slot = std::min(codes[t], null_slot);
      if (mark[slot] < base) {
        mark[slot] = next++;
        first_y[mark[slot] - base] = y[t];
      } else if (first_y[mark[slot] - base] != y[t]) {
        return std::nullopt;
      }
    }
    count += next - base;
    begin = end;
  }
  return count;
}

StrippedPartition StrippedPartition::Refine(const uint32_t* codes,
                                            uint32_t null_slot,
                                            PartitionScratch& scratch) const {
  PrepareMarks(scratch, size_t{null_slot} + 1);
  uint32_t* mark = scratch.mark.data();
  std::vector<uint32_t>& sizes = scratch.sizes;
  std::vector<uint32_t>& subgroup = scratch.subgroup;

  StrippedPartition out;
  out.physical_rows_ = physical_rows_;
  out.singletons_ = singletons_;
  out.rows_.reserve(rows_.size());
  size_t begin = 0;
  for (const uint32_t end : ends_) {
    const size_t len = end - begin;
    // Number the group's distinct slots in first-appearance order, size
    // each subgroup, and remember every row's subgroup for the scatter.
    // The group reserves a generation per row and marks a slot with the
    // base plus its subgroup, so a mark below the base is a slot the group
    // has not seen yet.
    const uint32_t base = ReserveGenerations(scratch, len);
    if (subgroup.size() < len) subgroup.resize(len);
    sizes.clear();
    for (size_t i = 0; i < len; ++i) {
      const uint32_t slot = std::min(codes[rows_[begin + i]], null_slot);
      if (mark[slot] < base) {
        mark[slot] = base + static_cast<uint32_t>(sizes.size());
        sizes.push_back(0);
      }
      subgroup[i] = mark[slot] - base;
      ++sizes[subgroup[i]];
    }
    // Lay out the multi-row subgroups; sizes become write cursors.
    auto offset = static_cast<uint32_t>(out.rows_.size());
    for (uint32_t& c : sizes) {
      if (c == 1) {
        ++out.singletons_;
        c = kSkip;
        continue;
      }
      const uint32_t start = offset;
      offset += c;
      out.ends_.push_back(offset);
      c = start;
    }
    out.rows_.resize(offset);
    for (size_t i = 0; i < len; ++i) {
      uint32_t& c = sizes[subgroup[i]];
      if (c != kSkip) out.rows_[c++] = rows_[begin + i];
    }
    begin = end;
  }
  return out;
}

size_t StrippedPartition::RefineIds(const uint32_t* codes, uint32_t null_slot,
                                    uint32_t* ids,
                                    PartitionScratch& scratch) const {
  if (rows_.size() + singletons_ != physical_rows_) {
    throw std::logic_error(
        "StrippedPartition::RefineIds: the partition does not cover every "
        "row");
  }
  PrepareMarks(scratch, size_t{null_slot} + 1);
  uint32_t* mark = scratch.mark.data();
  // Each kept row gets the index of its subgroup, numbered across all
  // groups; a row no kept group holds keeps kSkip. Marks work as in
  // Refine: the base plus the subgroup's index within its group. One scan
  // in row order then hands out ids as subgroups and singletons first
  // appear.
  std::fill(ids, ids + physical_rows_, kSkip);
  uint32_t subgroups = 0;
  size_t begin = 0;
  for (const uint32_t end : ends_) {
    const uint32_t base = ReserveGenerations(scratch, end - begin);
    uint32_t next = base;
    for (size_t i = begin; i < end; ++i) {
      const uint32_t slot = std::min(codes[rows_[i]], null_slot);
      if (mark[slot] < base) mark[slot] = next++;
      ids[rows_[i]] = subgroups + (mark[slot] - base);
    }
    subgroups += next - base;
    begin = end;
  }
  std::vector<uint32_t>& id_of = scratch.sizes;
  id_of.assign(subgroups, kSkip);
  uint32_t fresh = 0;
  for (size_t t = 0; t < physical_rows_; ++t) {
    const uint32_t k = ids[t];
    if (k == kSkip) {
      ids[t] = fresh++;
      continue;
    }
    if (id_of[k] == kSkip) id_of[k] = fresh++;
    ids[t] = id_of[k];
  }
  return fresh;
}

size_t StrippedPartition::RefineCount(const relation::Relation& rel, int attr,
                                      PartitionScratch& scratch) const {
  CheckRelation(rel, physical_rows_, "StrippedPartition::RefineCount");
  const relation::Column& col = rel.column(attr);
  return RefineCount(col.codes().data(),
                     static_cast<uint32_t>(col.dict_size()), scratch);
}

std::optional<size_t> StrippedPartition::RefineCountIfDetermines(
    const relation::Relation& rel, int attr, const uint32_t* y,
    PartitionScratch& scratch) const {
  CheckRelation(rel, physical_rows_,
                "StrippedPartition::RefineCountIfDetermines");
  const relation::Column& col = rel.column(attr);
  return RefineCountIfDetermines(col.codes().data(),
                                 static_cast<uint32_t>(col.dict_size()), y,
                                 scratch);
}

StrippedPartition StrippedPartition::Refine(const relation::Relation& rel,
                                            int attr,
                                            PartitionScratch& scratch) const {
  CheckRelation(rel, physical_rows_, "StrippedPartition::Refine");
  const relation::Column& col = rel.column(attr);
  return Refine(col.codes().data(), static_cast<uint32_t>(col.dict_size()),
                scratch);
}

StrippedPartition StrippedPartition::Refine(const relation::Relation& rel,
                                            const relation::AttrSet& attrs,
                                            PartitionScratch& scratch) const {
  const std::vector<int> cols = attrs.ToVector();
  if (cols.empty()) return *this;
  StrippedPartition out = Refine(rel, cols[0], scratch);
  for (size_t j = 1; j < cols.size(); ++j) {
    out = out.Refine(rel, cols[j], scratch);
  }
  return out;
}

}  // namespace fdevolve::query
