#include "query/column_stats.h"

#include <algorithm>
#include <limits>
#include <vector>

namespace fdevolve::query {

std::vector<ColumnStats> ComputeColumnStats(const relation::Relation& rel) {
  std::vector<ColumnStats> out;
  out.reserve(static_cast<size_t>(rel.attr_count()));
  const size_t live_rows = rel.live_count();
  for (int i = 0; i < rel.attr_count(); ++i) {
    const auto& col = rel.column(i);
    ColumnStats s;
    s.name = rel.schema().attr(i).name;
    s.null_count = col.live_null_count();
    s.distinct_count = col.live_distinct_count();
    // Live NULLs form one shared group for max_group_rows purposes.
    uint32_t max_count = 0;
    for (uint32_t n : col.live_counts()) max_count = std::max(max_count, n);
    s.max_group_rows = std::max<size_t>(s.null_count, max_count);
    s.null_fraction =
        live_rows > 0 ? static_cast<double>(s.null_count) / live_rows : 0.0;
    // The width sum is an exact integer: the mean needs no summation order.
    s.avg_dict_width =
        s.distinct_count > 0
            ? static_cast<double>(col.live_width()) / s.distinct_count
            : 0.0;
    s.is_unique = live_rows > 0 && s.null_count == 0 &&
                  s.max_group_rows <= 1 && s.distinct_count == live_rows;
    out.push_back(std::move(s));
  }
  return out;
}

size_t SaturatingMul(size_t a, size_t b) {
  if (a == 0 || b == 0) return 0;
  if (a > std::numeric_limits<size_t>::max() / b) {
    return std::numeric_limits<size_t>::max();
  }
  return a * b;
}

relation::AttrSet UniqueAttrs(const relation::Relation& rel) {
  relation::AttrSet s;
  auto stats = ComputeColumnStats(rel);
  for (int i = 0; i < rel.attr_count(); ++i) {
    if (stats[static_cast<size_t>(i)].is_unique) s.Add(i);
  }
  return s;
}

}  // namespace fdevolve::query
