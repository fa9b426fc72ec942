// Independent oracle for relation::Column's live counts and
// query::ComputeColumnStats.
//
// Both read counts that every mutation keeps current. This oracle instead
// walks every physical row of a column, skips the rows the tombstone
// bitmap marks dead, and counts occurrences per code: the scan the column
// statistics made before columns kept the counts. The statistics sum the
// value widths as doubles in code order, as that scan did, so the suites
// can compare every counter and statistic, doubles bit for bit.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "query/column_stats.h"
#include "relation/relation.h"

namespace fdevolve::testsupport {

/// One column's live counters, by scan.
struct ScannedColumn {
  std::vector<uint32_t> counts;  ///< live rows per dictionary code
  size_t nulls = 0;              ///< live NULL cells
  size_t distinct = 0;           ///< codes held by a live row
  uint64_t width = 0;            ///< summed encoded width of those values
  size_t max_group = 0;          ///< heaviest live group, NULLs as one
};

/// Encoded width of a non-NULL value: its string payload, or 8 bytes.
inline uint64_t ScanWidth(const relation::Value& v) {
  return v.is_string() ? v.as_string().size() : 8;
}

/// Scans `col` under a tombstone bitmap in Relation::live_bitmap()'s
/// form: one byte per physical row, empty meaning every row is live.
inline ScannedColumn ScanColumn(const relation::Column& col,
                                const std::vector<uint8_t>& live) {
  ScannedColumn out;
  out.counts.assign(col.dict_size(), 0u);
  for (size_t t = 0; t < col.size(); ++t) {
    if (!live.empty() && live[t] == 0) continue;
    const uint32_t c = col.code(t);
    const size_t n = c == relation::kNullCode
                         ? ++out.nulls
                         : static_cast<size_t>(++out.counts[c]);
    out.max_group = std::max(out.max_group, n);
  }
  for (uint32_t c = 0; c < out.counts.size(); ++c) {
    if (out.counts[c] == 0) continue;
    ++out.distinct;
    out.width += ScanWidth(col.DictValue(c));
  }
  return out;
}

/// ComputeColumnStats by one occurrence scan per column.
inline std::vector<query::ColumnStats> ScanColumnStats(
    const relation::Relation& rel) {
  std::vector<query::ColumnStats> out;
  const size_t live_rows = rel.live_count();
  for (int i = 0; i < rel.attr_count(); ++i) {
    const relation::Column& col = rel.column(i);
    const ScannedColumn scan = ScanColumn(col, rel.live_bitmap());
    query::ColumnStats s;
    s.name = rel.schema().attr(i).name;
    s.distinct_count = scan.distinct;
    s.null_count = scan.nulls;
    s.max_group_rows = scan.max_group;
    double width = 0.0;
    for (uint32_t c = 0; c < scan.counts.size(); ++c) {
      if (scan.counts[c] != 0) {
        width += static_cast<double>(ScanWidth(col.DictValue(c)));
      }
    }
    s.avg_dict_width = scan.distinct > 0 ? width / scan.distinct : 0.0;
    s.null_fraction =
        live_rows > 0 ? static_cast<double>(scan.nulls) / live_rows : 0.0;
    s.is_unique = live_rows > 0 && scan.nulls == 0 && scan.max_group <= 1 &&
                  scan.distinct == live_rows;
    out.push_back(std::move(s));
  }
  return out;
}

inline uint64_t DoubleBits(double d) {
  uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof bits);
  return bits;
}

/// Every field equal, doubles compared by their bits.
inline void ExpectStatsIdentical(const std::vector<query::ColumnStats>& got,
                                 const std::vector<query::ColumnStats>& want,
                                 const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (size_t i = 0; i < got.size(); ++i) {
    const query::ColumnStats& a = got[i];
    const query::ColumnStats& b = want[i];
    EXPECT_EQ(a.name, b.name) << where << " col=" << i;
    EXPECT_EQ(a.distinct_count, b.distinct_count) << where << " col=" << i;
    EXPECT_EQ(a.null_count, b.null_count) << where << " col=" << i;
    EXPECT_EQ(DoubleBits(a.null_fraction), DoubleBits(b.null_fraction))
        << where << " col=" << i;
    EXPECT_EQ(a.is_unique, b.is_unique) << where << " col=" << i;
    EXPECT_EQ(a.max_group_rows, b.max_group_rows) << where << " col=" << i;
    EXPECT_EQ(DoubleBits(a.avg_dict_width), DoubleBits(b.avg_dict_width))
        << where << " col=" << i;
  }
}

/// The column's maintained live counters equal a scan under `live`.
inline void ExpectLiveCountsMatchScan(const relation::Column& col,
                                      const std::vector<uint8_t>& live,
                                      const std::string& where) {
  const ScannedColumn scan = ScanColumn(col, live);
  EXPECT_EQ(col.live_counts(), scan.counts) << where;
  EXPECT_EQ(col.live_null_count(), scan.nulls) << where;
  EXPECT_EQ(col.live_distinct_count(), scan.distinct) << where;
  EXPECT_EQ(col.live_width(), scan.width) << where;
}

}  // namespace fdevolve::testsupport
