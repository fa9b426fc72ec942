// Sort-based COUNT(DISTINCT): the oracle the distinct-count suites check
// query::DistinctCount against, and the sort side of bench_query_micro's
// sort-vs-hash comparison (§4.4: the paper's COUNT(DISTINCT ...) costs a
// sort, O(n log n), or a hash count).
//
// It shares nothing with the library's partition refinement: one flat
// row-major key buffer over the live rows, an index sort, and a count of
// the boundaries between unequal keys — what a sort-based COUNT DISTINCT
// plan does in a DBMS.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <vector>

#include "relation/relation.h"

namespace fdevolve::testsupport {

/// |π_attrs(rel)| over the live rows (NULL equals NULL): 0 when no row is
/// live, otherwise 1 for empty attrs.
inline size_t SortDistinct(const relation::Relation& rel,
                           const relation::AttrSet& attrs) {
  const size_t n = rel.live_count();
  if (n == 0) return 0;
  const auto cols = attrs.ToVector();
  if (cols.empty()) return 1;
  const size_t k = cols.size();

  std::vector<uint32_t> rows;
  rows.reserve(n);
  for (size_t t = 0; t < rel.tuple_count(); ++t) {
    if (rel.is_live(t)) rows.push_back(static_cast<uint32_t>(t));
  }
  std::vector<uint32_t> keys(n * k);
  for (size_t j = 0; j < k; ++j) {
    const auto& codes = rel.column(cols[j]).codes();
    for (size_t t = 0; t < n; ++t) keys[t * k + j] = codes[rows[t]];
  }
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  auto row = [&](uint32_t t) {
    return keys.data() + static_cast<size_t>(t) * k;
  };
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return std::lexicographical_compare(row(a), row(a) + k, row(b),
                                        row(b) + k);
  });
  size_t distinct = 1;
  for (size_t t = 1; t < n; ++t) {
    if (!std::equal(row(order[t]), row(order[t]) + k, row(order[t - 1]))) {
      ++distinct;
    }
  }
  return distinct;
}

}  // namespace fdevolve::testsupport
