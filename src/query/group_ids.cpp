#include "query/group_ids.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "query/kernels.h"

namespace fdevolve::query {
namespace {

/// Dense-path admission limit for a pass of `n` tuples: the direct-indexed
/// array costs one O(cells) clear per pass, so cells must stay within a
/// small multiple of the per-tuple work (small absolute sizes are always
/// allowed — the clear is free next to the scan). Clamped to the kernel
/// layer's signed-gather bound.
size_t DenseLimit(size_t n) {
  const size_t lim = std::max<size_t>(size_t{1} << 16, 4 * n);
  return std::min(lim, kernels::kDenseCellLimit);
}

/// Fills `levels` with the kernel descriptors for a column chain.
void BuildLevels(const relation::Relation& rel, const int* cols, size_t k,
                 std::vector<kernels::Level>& levels) {
  levels.clear();
  levels.reserve(k);
  for (size_t j = 0; j < k; ++j) {
    const relation::Column& col = rel.column(cols[j]);
    kernels::Level lv;
    lv.codes = col.codes().data();
    lv.has_nulls = col.has_nulls();
    lv.null_slot = static_cast<uint32_t>(col.dict_size());
    lv.stride = static_cast<uint64_t>(col.dict_size()) +
                (col.has_nulls() ? 1 : 0);
    levels.push_back(lv);
  }
}

/// Fused-segment planner: how many of the remaining `nlevels` levels one
/// dense pass can take — the longest prefix whose packed radix (`groups`
/// times the strides) stays within DenseLimit(n), reported in
/// `*cells_out`. 0 means even the next level misses the dense array.
///
/// Segment boundaries never affect results — each segment assigns
/// first-appearance ids over the prefix packing, which composes to the
/// same final ids for any split — so this is purely a cost decision.
size_t PlanSegment(uint64_t groups, const kernels::Level* levels,
                   size_t nlevels, size_t n, uint64_t* cells_out) {
  const uint64_t dense_limit = DenseLimit(n);
  uint64_t prod = groups;
  size_t take = 0;
  for (size_t j = 0; j < nlevels; ++j) {
    const uint64_t stride = levels[j].stride;
    if (stride == 0 || prod > dense_limit / stride) break;
    prod *= stride;
    take = j + 1;
  }
  *cells_out = prod;
  return take;
}

/// One fused dense pass over one segment: every tuple in order, through
/// the active tier's kernel, over a freshly cleared `cells`-cell array.
size_t RunSegment(const uint32_t* base_ids, uint64_t base_groups,
                  const kernels::Level* levels, size_t nlevels, size_t n,
                  RefineScratch& s, uint32_t* out, const uint8_t* live,
                  uint64_t cells) {
  kernels::RefineArgs a;
  a.base_ids = base_ids;
  a.base_groups = base_groups;
  a.levels = levels;
  a.level_count = nlevels;
  a.n = n;
  a.out = out;
  a.live = live;
  if (s.dense.size() < cells) s.dense.resize(cells);
  std::fill(s.dense.begin(), s.dense.begin() + static_cast<ptrdiff_t>(cells),
            kernels::kVacant);
  return kernels::Active().dense_refine(a, s.dense.data());
}

/// Finishes a chain on a stripped partition: the partition of the rows
/// `live` selects under `ids` (`groups` of them), refined by every
/// remaining level but the last. A count-only chain (`out == nullptr`)
/// then counts against the last level; a materializing one writes the
/// last level's first-appearance ids to `out`, which may alias `ids`.
///
/// `ids == nullptr` means no level has run yet over the trivial base: the
/// first level's codes, with NULLs moved to the slot after the dictionary,
/// are then the ids. When that dictionary has more slots than the pass
/// has rows (GroupRows over a wide column), a cursor per slot would cost
/// more than the rows, so the chain starts from the one-group partition
/// and refines by the first level too; the marks that refinement needs
/// live in the caller's scratch.
size_t FinishOnPartition(const uint32_t* ids, uint64_t groups,
                         const kernels::Level* levels, size_t nlevels,
                         size_t n, RefineScratch& s, uint32_t* out,
                         const uint8_t* live) {
  size_t j = 0;
  if (ids == nullptr && levels[0].stride <= n) {
    const kernels::Level& first = levels[0];
    ids = first.codes;
    if (first.has_nulls) {
      s.chain_ids.resize(n);
      for (size_t t = 0; t < n; ++t) {
        s.chain_ids[t] = std::min(first.codes[t], first.null_slot);
      }
      ids = s.chain_ids.data();
    }
    groups = first.stride;
    j = 1;
  }
  StrippedPartition p(ids, n, static_cast<size_t>(groups), live);
  for (; j + 1 < nlevels; ++j) {
    p = p.Refine(levels[j].codes, levels[j].null_slot, s.partition);
  }
  // At least one level is left: a one-level chain past the dense limit
  // never takes the first level's codes as ids.
  assert(j + 1 == nlevels);
  const kernels::Level& last = levels[j];
  return out != nullptr
             ? p.RefineIds(last.codes, last.null_slot, out, s.partition)
             : p.RefineCount(last.codes, last.null_slot, s.partition);
}

/// Runs the chain already described by `s.levels` as a sequence of *fused*
/// dense segments over `n` tuples: each segment combines as many remaining
/// levels as its packed mixed-radix key affords (see kernels.h) and sweeps
/// the tuples once, instead of one pass per level. Chains that fit one
/// segment — the common case for the repair search's 2-4 attribute sets —
/// touch every column exactly once. Once the next segment misses the dense
/// array, FinishOnPartition completes the chain. A lone first level over
/// the trivial base goes there too, as its codes: a dense pass would only
/// renumber them, and the next segment cannot be dense either, since the
/// planner's prefix was already the longest that fits.
///
/// `out == nullptr` is the count-only form: intermediate dense segments
/// (if the chain needs more than one) materialize into `s.chain_ids`, and
/// only the final segment (or the partition) applies `live` — dead rows
/// are skipped there, so the result counts groups with at least one live
/// row while every intermediate id stays append-stable over physical rows.
/// Materializing chains take no row mask.
///
/// Its two callers differ only in what the levels point at: RunRefineChain
/// points them at the relation's columns, GroupRows at per-attribute
/// copies of the listed rows' codes.
size_t RunSegments(const uint32_t* base_ids, size_t base_groups, size_t n,
                   RefineScratch& s, uint32_t* out, const uint8_t* live) {
  assert(out == nullptr || live == nullptr);
  const size_t nlevels = s.levels.size();
  const kernels::Level* levels = s.levels.data();
  uint64_t groups = base_groups;
  const uint32_t* ids = base_ids;
  size_t j = 0;
  while (j < nlevels) {
    uint64_t cells = 0;
    const size_t take =
        PlanSegment(groups, levels + j, nlevels - j, n, &cells);
    const bool last = (j + take == nlevels);
    if (take == 0 || (!last && ids == nullptr && take == 1)) {
      return FinishOnPartition(ids, groups, levels + j, nlevels - j, n, s,
                               out, live);
    }
    // The final segment writes `out` as requested (null = count-only) and
    // is the only one the row mask applies to; earlier count-only
    // segments materialize into the scratch.
    uint32_t* seg_out = out;
    if (!last && out == nullptr) {
      s.chain_ids.resize(n);
      seg_out = s.chain_ids.data();
    }
    // seg_out may alias `ids` (in-place refinement) — kernels read each
    // tuple's base id before writing its slot.
    groups = RunSegment(ids, groups, levels + j, take, n, s, seg_out,
                        last ? live : nullptr, cells);
    ids = seg_out;
    j += take;
  }
  return static_cast<size_t>(groups);
}

/// Refinement chain over the relation's columns `cols[0..ncols)`.
size_t RunRefineChain(const uint32_t* base_ids, size_t base_groups,
                      const int* cols, size_t ncols,
                      const relation::Relation& rel, size_t n,
                      RefineScratch& s, uint32_t* out, const uint8_t* live) {
  BuildLevels(rel, cols, ncols, s.levels);
  return RunSegments(base_ids, base_groups, n, s, out, live);
}

/// Tombstone bitmap pointer for count-only passes: nullptr when every row
/// is live, so the append-only hot loops keep their branch-free shape.
const uint8_t* LiveMask(const relation::Relation& rel) {
  return rel.has_tombstones() ? rel.live_bitmap().data() : nullptr;
}

/// Distinct values of `ids[0..n)` over the rows `mask` selects, each id
/// < `domain` or kNullCode (one more value) — the masked replacement for
/// the O(1) dict_size / group_count answers. O(n + domain).
size_t MaskedDistinct(const uint32_t* ids, size_t n, size_t domain,
                      const uint8_t* mask) {
  std::vector<uint8_t> seen(domain + 1, 0);  // slot `domain` counts NULL
  size_t distinct = 0;
  for (size_t t = 0; t < n; ++t) {
    if (mask[t] == 0) continue;
    const size_t c = ids[t] == relation::kNullCode ? domain : ids[t];
    if (seen[c] == 0) {
      seen[c] = 1;
      ++distinct;
    }
  }
  return distinct;
}

void CheckBase(const relation::Relation& rel, const Grouping& base,
               const char* where) {
  if (base.ids.size() != rel.tuple_count()) {
    throw std::invalid_argument(std::string(where) +
                                ": grouping size mismatch");
  }
  if (base.group_count > base.ids.size()) {
    throw std::invalid_argument(std::string(where) +
                                ": base claims more groups than rows");
  }
}

}  // namespace

Grouping GroupBy(const relation::Relation& rel, const relation::AttrSet& attrs,
                 RefineScratch& scratch) {
  Grouping g;
  const size_t n = rel.tuple_count();
  if (n == 0) return g;
  const auto cols = attrs.ToVector();
  if (cols.empty()) {
    g.ids.assign(n, 0);
    g.group_count = 1;
    return g;
  }
  if (cols.size() == 1 && !rel.column(cols[0]).has_nulls()) {
    // Dictionary codes are already dense ids in first-appearance order.
    g.ids = rel.column(cols[0]).codes();
    g.group_count = rel.column(cols[0]).dict_size();
    return g;
  }
  g.ids.resize(n);
  g.group_count = RunRefineChain(nullptr, 1, cols.data(), cols.size(), rel, n,
                                 scratch, g.ids.data(), nullptr);
  return g;
}

Grouping GroupBy(const relation::Relation& rel,
                 const relation::AttrSet& attrs) {
  RefineScratch scratch;
  return GroupBy(rel, attrs, scratch);
}

Grouping RefineBy(const relation::Relation& rel, const Grouping& base,
                  int attr, RefineScratch& scratch) {
  CheckBase(rel, base, "RefineBy");
  Grouping out;
  const size_t n = base.ids.size();
  if (n == 0) return out;
  out.ids.resize(n);
  out.group_count = RunRefineChain(base.ids.data(), base.group_count, &attr, 1,
                                   rel, n, scratch, out.ids.data(), nullptr);
  return out;
}

Grouping RefineBy(const relation::Relation& rel, const Grouping& base,
                  int attr) {
  RefineScratch scratch;
  return RefineBy(rel, base, attr, scratch);
}

Grouping RefineBy(const relation::Relation& rel, const Grouping& base,
                  const relation::AttrSet& attrs, RefineScratch& scratch) {
  CheckBase(rel, base, "RefineBy");
  const size_t n = base.ids.size();
  const auto cols = attrs.ToVector();
  if (cols.empty() || n == 0) {
    Grouping copy = base;
    return copy;
  }
  Grouping out;
  out.ids.resize(n);
  out.group_count =
      RunRefineChain(base.ids.data(), base.group_count, cols.data(),
                     cols.size(), rel, n, scratch, out.ids.data(), nullptr);
  return out;
}

Grouping RefineBy(const relation::Relation& rel, const Grouping& base,
                  const relation::AttrSet& attrs) {
  RefineScratch scratch;
  return RefineBy(rel, base, attrs, scratch);
}

Grouping GroupRows(const relation::Relation& rel,
                   const std::vector<uint32_t>& rows,
                   const relation::AttrSet& attrs, RefineScratch& scratch) {
  Grouping g;
  const size_t k = rows.size();
  if (k == 0) return g;
  const size_t n = rel.tuple_count();
  for (uint32_t row : rows) {
    if (row >= n) throw std::invalid_argument("GroupRows: row id out of range");
  }
  const auto cols = attrs.ToVector();
  if (cols.empty()) {
    g.ids.assign(k, 0);
    g.group_count = 1;
    return g;
  }
  // Gather each attribute's codes for the listed rows, then refine over
  // the copies exactly as GroupBy refines over the columns. The levels
  // keep their dictionary strides, so planning sees the same radix.
  BuildLevels(rel, cols.data(), cols.size(), scratch.levels);
  if (scratch.row_codes.size() < cols.size()) {
    scratch.row_codes.resize(cols.size());
  }
  for (size_t j = 0; j < cols.size(); ++j) {
    const uint32_t* codes = scratch.levels[j].codes;
    std::vector<uint32_t>& copy = scratch.row_codes[j];
    copy.resize(k);
    for (size_t i = 0; i < k; ++i) copy[i] = codes[rows[i]];
    scratch.levels[j].codes = copy.data();
  }
  g.ids.resize(k);
  g.group_count = RunSegments(nullptr, 1, k, scratch, g.ids.data(), nullptr);
  return g;
}

size_t GroupCountBy(const relation::Relation& rel,
                    const relation::AttrSet& attrs, const uint8_t* mask,
                    RefineScratch& scratch) {
  const size_t n = rel.tuple_count();
  if (n == 0) return 0;
  const auto cols = attrs.ToVector();
  if (cols.empty()) {
    return mask == nullptr || *std::max_element(mask, mask + n) != 0 ? 1 : 0;
  }
  if (cols.size() == 1) {
    const auto& col = rel.column(cols[0]);
    if (mask != nullptr) {
      return MaskedDistinct(col.codes().data(), n, col.dict_size(), mask);
    }
    // Every physical row: |π_A| falls straight out of the dictionary.
    return col.dict_size() + (col.has_nulls() ? 1 : 0);
  }
  // Count-only fused chain: when every level fits one segment — the common
  // case — this is a single sweep with no id materialization at all. The
  // mask applies only to the final segment or the stripped partition (see
  // RunSegments), which is what makes the count "groups with a selected
  // row" while any intermediate ids stay append-stable.
  return RunRefineChain(nullptr, 1, cols.data(), cols.size(), rel, n, scratch,
                        nullptr, mask);
}

size_t GroupCountBy(const relation::Relation& rel,
                    const relation::AttrSet& attrs, RefineScratch& scratch) {
  // The empty set and a single attribute need no per-tuple work, tombstoned
  // or not: the live row count, or the column's live counts.
  if (attrs.Empty()) return rel.live_count() > 0 ? 1 : 0;
  if (attrs.Count() == 1) {
    const relation::Column& col = rel.column(attrs.ToVector()[0]);
    return col.live_distinct_count() + (col.live_null_count() > 0 ? 1 : 0);
  }
  return GroupCountBy(rel, attrs, LiveMask(rel), scratch);
}

size_t GroupCountBy(const relation::Relation& rel,
                    const relation::AttrSet& attrs) {
  RefineScratch scratch;
  return GroupCountBy(rel, attrs, scratch);
}

size_t RefineCountBy(const relation::Relation& rel, const Grouping& base,
                     const relation::AttrSet& attrs, RefineScratch& scratch) {
  CheckBase(rel, base, "RefineCountBy");
  const size_t n = base.ids.size();
  if (n == 0) return attrs.Empty() ? base.group_count : 0;
  const uint8_t* live = LiveMask(rel);
  const auto cols = attrs.ToVector();
  if (cols.empty()) {
    // Tombstone-aware: groups of `base` with at least one live row.
    return live == nullptr
               ? base.group_count
               : MaskedDistinct(base.ids.data(), n, base.group_count, live);
  }
  return RunRefineChain(base.ids.data(), base.group_count, cols.data(),
                        cols.size(), rel, n, scratch, nullptr, live);
}

size_t RefineCountBy(const relation::Relation& rel, const Grouping& base,
                     const relation::AttrSet& attrs) {
  RefineScratch scratch;
  return RefineCountBy(rel, base, attrs, scratch);
}

size_t JointGroupCount(const Grouping& a, const Grouping& b) {
  if (a.ids.size() != b.ids.size()) {
    throw std::invalid_argument("JointGroupCount: size mismatch");
  }
  const size_t n = a.ids.size();
  if (a.group_count > n || b.group_count > n) {
    throw std::invalid_argument("JointGroupCount: more groups than rows");
  }
  // The partition checks a's ids; b's serve as codes, which it does not.
  for (const uint32_t id : b.ids) {
    if (id >= b.group_count) {
      throw std::invalid_argument("JointGroupCount: group id out of range");
    }
  }
  PartitionScratch scratch;
  return StrippedPartition(a.ids.data(), n, a.group_count, nullptr)
      .RefineCount(b.ids.data(), static_cast<uint32_t>(b.group_count),
                   scratch);
}

}  // namespace fdevolve::query
