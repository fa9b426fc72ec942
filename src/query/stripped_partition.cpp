#include "query/stripped_partition.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

namespace fdevolve::query {
namespace {

/// Write-cursor value of a group that keeps no rows (a singleton).
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

/// Starts a new group: returns a generation no mark holds yet.
uint32_t NextGeneration(PartitionScratch& s) {
  if (++s.generation == 0) {
    std::fill(s.mark.begin(), s.mark.end(), 0u);
    s.generation = 1;
  }
  return s.generation;
}

}  // namespace

StrippedPartition StrippedPartition::FromGrouping(const relation::Relation& rel,
                                                  const Grouping& g) {
  const size_t n = rel.tuple_count();
  if (g.ids.size() != n) {
    throw std::invalid_argument(
        "StrippedPartition::FromGrouping: grouping size mismatch");
  }
  if (n >= kSkip) {
    throw std::length_error(
        "StrippedPartition::FromGrouping: too many rows for 32-bit indices");
  }
  const uint8_t* live =
      rel.has_tombstones() ? rel.live_bitmap().data() : nullptr;

  // Live rows per group.
  std::vector<uint32_t> cursor(g.group_count, 0u);
  for (size_t t = 0; t < n; ++t) {
    if (live != nullptr && live[t] == 0) continue;
    const uint32_t id = g.ids[t];
    if (id >= g.group_count) {
      throw std::invalid_argument(
          "StrippedPartition::FromGrouping: group id out of range");
    }
    ++cursor[id];
  }

  // Lay the multi-row groups out in id order — first-appearance order —
  // turning each size into the group's write cursor.
  StrippedPartition p;
  p.physical_rows_ = n;
  uint32_t offset = 0;
  for (uint32_t& c : cursor) {
    if (c <= 1) {
      p.singletons_ += c;
      c = kSkip;
      continue;
    }
    const uint32_t start = offset;
    offset += c;
    p.ends_.push_back(offset);
    c = start;
  }
  p.rows_.resize(offset);
  for (size_t t = 0; t < n; ++t) {
    if (live != nullptr && live[t] == 0) continue;
    uint32_t& c = cursor[g.ids[t]];
    if (c != kSkip) p.rows_[c++] = static_cast<uint32_t>(t);
  }
  return p;
}

size_t StrippedPartition::RefineCount(const relation::Relation& rel, int attr,
                                      PartitionScratch& scratch) const {
  CheckRelation(rel, physical_rows_, "StrippedPartition::RefineCount");
  const relation::Column& col = rel.column(attr);
  const uint32_t* codes = col.codes().data();
  // kNullCode is the largest u32, so min() folds it onto the NULL slot
  // and leaves every real code where it is.
  const auto null_slot = static_cast<uint32_t>(col.dict_size());
  PrepareMarks(scratch, size_t{null_slot} + 1);
  uint32_t* mark = scratch.mark.data();

  size_t count = singletons_;
  size_t begin = 0;
  for (const uint32_t end : ends_) {
    const uint32_t gen = NextGeneration(scratch);
    for (size_t i = begin; i < end; ++i) {
      const uint32_t slot = std::min(codes[rows_[i]], null_slot);
      if (mark[slot] != gen) {
        mark[slot] = gen;
        ++count;
      }
    }
    begin = end;
  }
  return count;
}

StrippedPartition StrippedPartition::Refine(const relation::Relation& rel,
                                            int attr,
                                            PartitionScratch& scratch) const {
  CheckRelation(rel, physical_rows_, "StrippedPartition::Refine");
  const relation::Column& col = rel.column(attr);
  const uint32_t* codes = col.codes().data();
  const auto null_slot = static_cast<uint32_t>(col.dict_size());
  PrepareMarks(scratch, size_t{null_slot} + 1);
  if (scratch.local.size() < scratch.mark.size()) {
    scratch.local.resize(scratch.mark.size());
  }
  uint32_t* mark = scratch.mark.data();
  uint32_t* local = scratch.local.data();
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
    const uint32_t gen = NextGeneration(scratch);
    if (subgroup.size() < len) subgroup.resize(len);
    sizes.clear();
    for (size_t i = 0; i < len; ++i) {
      const uint32_t slot = std::min(codes[rows_[begin + i]], null_slot);
      if (mark[slot] != gen) {
        mark[slot] = gen;
        local[slot] = static_cast<uint32_t>(sizes.size());
        sizes.push_back(0);
      }
      subgroup[i] = local[slot];
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
