#include "query/column_stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>

#include "fd/cost_model.h"
#include "support/column_scan.h"

namespace fdevolve::query {
namespace {

using relation::AttrSet;
using relation::DataType;
using relation::Relation;
using relation::RelationBuilder;
using relation::Schema;
using relation::Value;

/// ComputeColumnStats, checked bit for bit against the scan oracle.
std::vector<ColumnStats> Checked(const Relation& rel) {
  std::vector<ColumnStats> stats = ComputeColumnStats(rel);
  testsupport::ExpectStatsIdentical(stats, testsupport::ScanColumnStats(rel),
                                    rel.name());
  return stats;
}

Relation MakeRel() {
  Schema schema({{"uniq", DataType::kInt64},
                 {"dup", DataType::kString},
                 {"nully", DataType::kInt64}});
  return RelationBuilder("t", schema)
      .Row({int64_t{1}, "a", int64_t{1}})
      .Row({int64_t{2}, "a", Value::Null()})
      .Row({int64_t{3}, "b", int64_t{2}})
      .Build();
}

TEST(ColumnStatsTest, CountsPerColumn) {
  auto stats = Checked(MakeRel());
  ASSERT_EQ(stats.size(), 3u);
  EXPECT_EQ(stats[0].name, "uniq");
  EXPECT_EQ(stats[0].distinct_count, 3u);
  EXPECT_EQ(stats[0].null_count, 0u);
  EXPECT_EQ(stats[1].distinct_count, 2u);
  EXPECT_EQ(stats[2].null_count, 1u);
}

TEST(ColumnStatsTest, UniqueDetection) {
  auto stats = Checked(MakeRel());
  EXPECT_TRUE(stats[0].is_unique);
  EXPECT_FALSE(stats[1].is_unique);
  // A column with NULLs is not considered UNIQUE even if non-null values
  // are distinct (it could not serve as a key).
  EXPECT_FALSE(stats[2].is_unique);
}

TEST(ColumnStatsTest, UniqueAttrsSet) {
  EXPECT_EQ(UniqueAttrs(MakeRel()), AttrSet::Of({0}));
}

TEST(ColumnStatsTest, NullFractionAndDictWidth) {
  auto stats = Checked(MakeRel());
  EXPECT_DOUBLE_EQ(stats[0].null_fraction, 0.0);
  EXPECT_DOUBLE_EQ(stats[2].null_fraction, 1.0 / 3.0);
  // Numeric values weigh 8 bytes; strings their payload size ("a", "b").
  EXPECT_DOUBLE_EQ(stats[0].avg_dict_width, 8.0);
  EXPECT_DOUBLE_EQ(stats[1].avg_dict_width, 1.0);
}

TEST(ColumnStatsTest, StatsCoverLiveRowsOnly) {
  Relation rel = MakeRel();
  rel.DeleteRow(0);  // {1, "a", 1} leaves the live instance
  auto stats = Checked(rel);
  // uniq: {2, 3}; dup: {"a", "b"}; nully: {NULL, 2}.
  EXPECT_EQ(stats[0].distinct_count, 2u);
  EXPECT_TRUE(stats[0].is_unique);
  EXPECT_EQ(stats[1].distinct_count, 2u);
  EXPECT_TRUE(stats[1].is_unique);  // "a" occurs once among live rows now
  EXPECT_EQ(stats[2].null_count, 1u);
  EXPECT_DOUBLE_EQ(stats[2].null_fraction, 0.5);
  // Ground truth: identical stats on the compacted copy (the fresh-build
  // equivalent of the live instance).
  auto compacted = Checked(rel.CompactedCopy());
  ASSERT_EQ(stats.size(), compacted.size());
  for (size_t i = 0; i < stats.size(); ++i) {
    EXPECT_EQ(stats[i].distinct_count, compacted[i].distinct_count) << i;
    EXPECT_EQ(stats[i].null_count, compacted[i].null_count) << i;
    EXPECT_DOUBLE_EQ(stats[i].null_fraction, compacted[i].null_fraction);
    EXPECT_EQ(stats[i].is_unique, compacted[i].is_unique) << i;
  }
  EXPECT_EQ(UniqueAttrs(rel), UniqueAttrs(rel.CompactedCopy()));
}

TEST(ColumnStatsTest, MaxGroupRowsTracksHeaviestGroup) {
  auto stats = Checked(MakeRel());
  EXPECT_EQ(stats[0].max_group_rows, 1u);  // all distinct
  EXPECT_EQ(stats[1].max_group_rows, 2u);  // "a" twice
  EXPECT_EQ(stats[2].max_group_rows, 1u);  // {1, NULL, 2}
}

TEST(ColumnStatsTest, MaxGroupRowsCountsNullsAsOneGroup) {
  // Two NULLs in an otherwise-distinct column: the NULL group is the
  // heaviest (the paper's NULL semantics treat NULL = NULL for grouping).
  Schema schema({{"n", DataType::kInt64}});
  Relation rel = RelationBuilder("t", schema)
                     .Row({Value::Null()})
                     .Row({int64_t{7}})
                     .Row({Value::Null()})
                     .Build();
  auto stats = Checked(rel);
  EXPECT_EQ(stats[0].distinct_count, 1u);
  EXPECT_EQ(stats[0].null_count, 2u);
  EXPECT_EQ(stats[0].max_group_rows, 2u);
  EXPECT_EQ(stats[0].group_slots(), 2u);  // one value + the NULL slot
}

TEST(ColumnStatsTest, MaxGroupRowsIgnoresDeadRows) {
  Schema schema({{"v", DataType::kString}});
  Relation rel = RelationBuilder("t", schema)
                     .Row({"x"})
                     .Row({"x"})
                     .Row({"x"})
                     .Row({"y"})
                     .Build();
  rel.DeleteRow(0);
  rel.DeleteRow(1);
  auto stats = Checked(rel);
  EXPECT_EQ(stats[0].max_group_rows, 1u);  // live: {"x", "y"}
  auto compacted = Checked(rel.CompactedCopy());
  EXPECT_EQ(stats[0].max_group_rows, compacted[0].max_group_rows);
}

TEST(ColumnStatsTest, ProjectionUpperBoundIsSoundAndSaturates) {
  // The one-step bound the planner prunes with,
  // min(live, |pi_X| * slots(A)), from these stats.
  auto stats = Checked(MakeRel());
  // |pi_{dup}| = 2, adding uniq (3 slots): bound = min(3, 2*3) = 3 live.
  EXPECT_EQ(fd::CostModel(stats, 3).ReachableDistinctBound(2, 0, 1), 3u);
  // Adding nully (2 values + NULL slot = 3 slots) with plenty of rows.
  EXPECT_EQ(stats[2].group_slots(), 3u);
  EXPECT_EQ(fd::CostModel(stats, 100).ReachableDistinctBound(2, 2, 1), 6u);
  // Saturating arithmetic: a huge base never wraps around.
  const size_t big = SIZE_MAX / 2;
  EXPECT_EQ(SaturatingMul(big, 3), SIZE_MAX);
  EXPECT_EQ(fd::CostModel(stats, SIZE_MAX).ReachableDistinctBound(big, 0, 1),
            SIZE_MAX);
}

TEST(ColumnStatsTest, AllRowsDeletedMeansNoUniqueColumns) {
  Relation rel = MakeRel();
  for (size_t t = 0; t < rel.tuple_count(); ++t) rel.DeleteRow(t);
  auto stats = Checked(rel);
  for (const auto& s : stats) {
    EXPECT_EQ(s.distinct_count, 0u);
    EXPECT_EQ(s.null_count, 0u);
    EXPECT_DOUBLE_EQ(s.null_fraction, 0.0);
    EXPECT_FALSE(s.is_unique);
  }
  EXPECT_TRUE(UniqueAttrs(rel).Empty());
}

TEST(ColumnStatsTest, ValueDeletedThenAppendedAgainCountsOnce) {
  // "bb" loses its last live row, then comes back under its old code:
  // it leaves and re-enters ndv and the width sum exactly once each.
  Schema schema({{"s", DataType::kString}, {"d", DataType::kDouble}});
  Relation rel = RelationBuilder("t", schema)
                     .Row({"a", 0.0})
                     .Row({"bb", -0.0})
                     .Row({"cccc", std::nan("")})
                     .Row({"a", std::nan("")})
                     .Build();
  auto stats = Checked(rel);
  EXPECT_EQ(stats[0].distinct_count, 3u);
  EXPECT_DOUBLE_EQ(stats[0].avg_dict_width, 7.0 / 3.0);
  // Both zeros share a code; each NaN takes its own.
  EXPECT_EQ(stats[1].distinct_count, 3u);
  EXPECT_EQ(stats[1].max_group_rows, 2u);
  rel.DeleteRow(1);
  stats = Checked(rel);
  EXPECT_EQ(stats[0].distinct_count, 2u);
  EXPECT_DOUBLE_EQ(stats[0].avg_dict_width, 2.5);
  EXPECT_EQ(stats[1].max_group_rows, 1u);
  rel.AppendRow({Value("bb"), Value(0.0)});
  stats = Checked(rel);
  EXPECT_EQ(stats[0].distinct_count, 3u);
  EXPECT_EQ(rel.column(0).dict_size(), 3u);  // the old code, not a new one
  EXPECT_DOUBLE_EQ(stats[0].avg_dict_width, 7.0 / 3.0);
  testsupport::ExpectStatsIdentical(stats, Checked(rel.CompactedCopy()),
                                    "compacted");
}

TEST(ColumnStatsTest, EmptyRelationHasNoUniqueAttrs) {
  Schema schema({{"x", DataType::kInt64}});
  Relation r("e", schema);
  EXPECT_TRUE(UniqueAttrs(r).Empty());
  auto stats = Checked(r);
  EXPECT_FALSE(stats[0].is_unique);
}

}  // namespace
}  // namespace fdevolve::query
