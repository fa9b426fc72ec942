// Independent oracle for the refinement engine's group ids.
//
// GroupBy, RefineBy and GroupRows promise dense ids in order of first
// appearance: equal code tuples share an id, and a tuple not seen before
// gets the next one. This oracle computes exactly that, one row at a time,
// with a std::map from code tuple to id — no packed keys, dense arrays or
// partitions — so the suites can compare the engine's ids bit for bit.
#pragma once

#include <cstdint>
#include <map>
#include <numeric>
#include <vector>

#include "query/group_ids.h"
#include "relation/relation.h"

namespace fdevolve::testsupport {

/// The Grouping GroupRows(rel, rows, attrs) must return: `ids[i]` numbers
/// row rows[i]'s code tuple over `attrs` (kNullCode is just another code,
/// so NULLs group together) in order of first appearance along `rows`.
inline query::Grouping FirstAppearanceGrouping(
    const relation::Relation& rel, const std::vector<uint32_t>& rows,
    const relation::AttrSet& attrs) {
  const std::vector<int> cols = attrs.ToVector();
  std::map<std::vector<uint32_t>, uint32_t> id_of;
  std::vector<uint32_t> key(cols.size());
  query::Grouping g;
  g.ids.reserve(rows.size());
  for (const uint32_t row : rows) {
    for (size_t j = 0; j < cols.size(); ++j) {
      key[j] = rel.column(cols[j]).code(row);
    }
    const auto next = static_cast<uint32_t>(id_of.size());
    g.ids.push_back(id_of.emplace(key, next).first->second);
  }
  g.group_count = id_of.size();
  return g;
}

/// The Grouping GroupBy(rel, attrs) must return: every physical row, dead
/// ones included, in row order.
inline query::Grouping FirstAppearanceGrouping(const relation::Relation& rel,
                                               const relation::AttrSet& attrs) {
  std::vector<uint32_t> every(rel.tuple_count());
  std::iota(every.begin(), every.end(), 0u);
  return FirstAppearanceGrouping(rel, every, attrs);
}

}  // namespace fdevolve::testsupport
