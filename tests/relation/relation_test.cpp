#include "relation/relation.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace fdevolve::relation {
namespace {

Relation MakeSmall() {
  Schema schema({{"id", DataType::kInt64},
                 {"name", DataType::kString},
                 {"score", DataType::kDouble}});
  return RelationBuilder("t", schema)
      .Row({int64_t{1}, "a", 1.5})
      .Row({int64_t{2}, "b", 2.5})
      .Row({int64_t{3}, "a", Value::Null()})
      .Build();
}

TEST(RelationTest, BasicShape) {
  Relation r = MakeSmall();
  EXPECT_EQ(r.name(), "t");
  EXPECT_EQ(r.tuple_count(), 3u);
  EXPECT_EQ(r.attr_count(), 3);
}

TEST(RelationTest, CellAccess) {
  Relation r = MakeSmall();
  EXPECT_EQ(r.Get(0, 0), Value(int64_t{1}));
  EXPECT_EQ(r.Get(1, 1), Value("b"));
  EXPECT_TRUE(r.Get(2, 2).is_null());
}

TEST(RelationTest, DictionaryEncodingSharesCodes) {
  Relation r = MakeSmall();
  const Column& name = r.column(1);
  // "a" appears twice -> same code; dictionary has 2 entries.
  EXPECT_EQ(name.code(0), name.code(2));
  EXPECT_NE(name.code(0), name.code(1));
  EXPECT_EQ(name.dict_size(), 2u);
}

TEST(RelationTest, NullsTracked) {
  Relation r = MakeSmall();
  EXPECT_EQ(r.column(2).null_count(), 1u);
  EXPECT_TRUE(r.column(2).has_nulls());
  EXPECT_FALSE(r.column(0).has_nulls());
  EXPECT_EQ(r.column(2).code(2), kNullCode);
}

TEST(RelationTest, NonNullAttrs) {
  Relation r = MakeSmall();
  EXPECT_EQ(r.NonNullAttrs(), AttrSet::Of({0, 1}));
}

TEST(RelationTest, ArityMismatchThrows) {
  Relation r = MakeSmall();
  EXPECT_THROW(r.AppendRow({int64_t{1}}), std::invalid_argument);
}

TEST(RelationTest, TypeMismatchThrows) {
  Relation r = MakeSmall();
  EXPECT_THROW(r.AppendRow({"not-an-int", "x", 1.0}), std::invalid_argument);
}

TEST(RelationTest, NullAcceptedInAnyColumn) {
  Relation r = MakeSmall();
  r.AppendRow({Value::Null(), Value::Null(), Value::Null()});
  EXPECT_EQ(r.tuple_count(), 4u);
  EXPECT_TRUE(r.Get(3, 0).is_null());
}

TEST(RelationTest, DictValueRoundTrip) {
  Relation r = MakeSmall();
  const Column& name = r.column(1);
  EXPECT_EQ(name.DictValue(name.code(0)), Value("a"));
  EXPECT_TRUE(name.DictValue(kNullCode).is_null());
}

TEST(RelationTest, EmptyRelation) {
  Schema schema({{"x", DataType::kInt64}});
  Relation r("empty", schema);
  EXPECT_EQ(r.tuple_count(), 0u);
  EXPECT_FALSE(r.column(0).has_nulls());
  EXPECT_EQ(r.NonNullAttrs(), AttrSet::Of({0}));
}

TEST(RelationTest, MidRowTypeMismatchLeavesRelationIntact) {
  // Regression: the mismatch is in the *last* column, after valid cells for
  // the earlier ones. A naive per-cell append would have grown columns 0-1
  // before throwing, leaving unequal column lengths (a corrupt relation).
  Relation r = MakeSmall();
  EXPECT_THROW(r.AppendRow({int64_t{9}, "z", "not-a-double"}),
               std::invalid_argument);
  EXPECT_EQ(r.tuple_count(), 3u);
  for (int a = 0; a < r.attr_count(); ++a) {
    EXPECT_EQ(r.column(a).size(), 3u) << "column " << a;
  }
  // The failed row must not have leaked values into the dictionaries.
  EXPECT_EQ(r.column(1).dict_size(), 2u);
  // The relation remains fully usable.
  r.AppendRow({int64_t{4}, "c", 4.5});
  EXPECT_EQ(r.tuple_count(), 4u);
  EXPECT_EQ(r.Get(3, 1), Value("c"));
}

TEST(RelationTest, AppendRowsBatch) {
  Relation r = MakeSmall();
  r.AppendRows({{int64_t{4}, "d", 4.0}, {int64_t{5}, "e", Value::Null()}});
  EXPECT_EQ(r.tuple_count(), 5u);
  EXPECT_EQ(r.Get(4, 1), Value("e"));
  r.AppendRows({});  // empty batch is a no-op
  EXPECT_EQ(r.tuple_count(), 5u);
}

TEST(RelationTest, AppendRowsIsAllOrNothing) {
  Relation r = MakeSmall();
  // Second row is bad: nothing from the batch may land, including the
  // valid first row.
  EXPECT_THROW(r.AppendRows({{int64_t{4}, "d", 4.0},
                             {int64_t{5}, int64_t{6}, 5.0}}),
               std::invalid_argument);
  EXPECT_EQ(r.tuple_count(), 3u);
  for (int a = 0; a < r.attr_count(); ++a) {
    EXPECT_EQ(r.column(a).size(), 3u) << "column " << a;
  }
  EXPECT_EQ(r.column(1).dict_size(), 2u);  // "d" was not interned
}

TEST(RelationTest, VersionIsAMonotoneRowWatermark) {
  Relation r = MakeSmall();
  EXPECT_EQ(r.version(), 3u);
  r.AppendRow({int64_t{4}, "d", 4.0});
  EXPECT_EQ(r.version(), 4u);
  r.AppendRows({{int64_t{5}, "e", 5.0}, {int64_t{6}, "f", 6.0}});
  EXPECT_EQ(r.version(), 6u);
  EXPECT_EQ(r.version(), r.tuple_count());
}

TEST(RelationTest, FromEncodedReproducesColumnState) {
  Relation src = MakeSmall();
  std::vector<Column> cols;
  for (int i = 0; i < src.attr_count(); ++i) {
    const Column& c = src.column(i);
    cols.push_back(Column::FromEncoded(
        c.type(), c.dict_values(), c.codes(), c.null_count()));
  }
  Relation copy = Relation::FromEncoded("t2", src.schema(), std::move(cols));
  ASSERT_EQ(copy.tuple_count(), src.tuple_count());
  EXPECT_EQ(copy.version(), src.version());
  for (size_t t = 0; t < src.tuple_count(); ++t) {
    for (int i = 0; i < src.attr_count(); ++i) {
      EXPECT_EQ(copy.column(i).code(t), src.column(i).code(t));
    }
  }
  // The rebuilt dictionary index keeps appends consistent: re-appending an
  // existing value must reuse its code, not mint a new one.
  copy.AppendRow({int64_t{9}, "a", 1.5});
  EXPECT_EQ(copy.column(1).code(3), src.column(1).code(0));
}

TEST(RelationTest, FromEncodedValidates) {
  // Code out of dictionary range.
  EXPECT_THROW(Column::FromEncoded(DataType::kInt64, {Value(int64_t{1})},
                                   {0u, 1u}, 0),
               std::invalid_argument);
  // Declared null count disagrees with kNullCode occurrences.
  EXPECT_THROW(Column::FromEncoded(DataType::kInt64, {Value(int64_t{1})},
                                   {0u, kNullCode}, 0),
               std::invalid_argument);
  // Dictionary value of the wrong type.
  EXPECT_THROW(
      Column::FromEncoded(DataType::kInt64, {Value("str")}, {0u}, 0),
      std::invalid_argument);
  // NULL may not live in a dictionary (it is the kNullCode sentinel).
  EXPECT_THROW(
      Column::FromEncoded(DataType::kInt64, {Value::Null()}, {0u}, 0),
      std::invalid_argument);
  // Duplicate dictionary values would make codes ambiguous.
  EXPECT_THROW(Column::FromEncoded(DataType::kInt64,
                                   {Value(int64_t{1}), Value(int64_t{1})},
                                   {0u, 1u}, 0),
               std::invalid_argument);
  // Unequal column lengths across the relation.
  Schema schema({{"a", DataType::kInt64}, {"b", DataType::kInt64}});
  std::vector<Column> cols;
  cols.push_back(
      Column::FromEncoded(DataType::kInt64, {Value(int64_t{1})}, {0u}, 0));
  cols.push_back(Column::FromEncoded(DataType::kInt64, {Value(int64_t{2})},
                                     {0u, 0u}, 0));
  EXPECT_THROW(Relation::FromEncoded("t", schema, std::move(cols)),
               std::invalid_argument);
}

TEST(ColumnTest, FromEncodedRejectsDictionaryValueNoRowHolds) {
  // Dictionary {10, 20} with codes {0, 0, 0}: no row holds 20, so the
  // column would report two values where its rows hold one.
  EXPECT_THROW(Column::FromEncoded(DataType::kInt64,
                                   {Value(int64_t{10}), Value(int64_t{20})},
                                   {0u, 0u, 0u}, 0),
               std::invalid_argument);
  // NULLs hold no dictionary value, and an empty column no value at all.
  EXPECT_THROW(Column::FromEncoded(DataType::kInt64, {Value(int64_t{10})},
                                   {kNullCode, kNullCode}, 2),
               std::invalid_argument);
  EXPECT_THROW(
      Column::FromEncoded(DataType::kInt64, {Value(int64_t{10})}, {}, 0),
      std::invalid_argument);
  // Every value held once is enough, and deletions replayed later may
  // leave a value only dead rows hold.
  const Column c = Column::FromEncoded(
      DataType::kInt64, {Value(int64_t{10}), Value(int64_t{20})},
      {1u, kNullCode, 0u}, 1);
  EXPECT_EQ(c.dict_size(), 2u);
  EXPECT_EQ(c.live_distinct_count(), 2u);
  EXPECT_TRUE(Column::FromEncoded(DataType::kInt64, {}, {}, 0).size() == 0);
}

TEST(RelationTest, DeleteRowTombstonesWithoutMovingBytes) {
  Relation r = MakeSmall();
  EXPECT_FALSE(r.has_tombstones());
  EXPECT_EQ(r.live_count(), 3u);
  r.DeleteRow(1);
  // Physical layout untouched: watermark, codes, and cell bytes stay.
  EXPECT_EQ(r.tuple_count(), 3u);
  EXPECT_EQ(r.version(), 3u);
  EXPECT_EQ(r.Get(1, 1), Value("b"));
  // Logical view updated.
  EXPECT_TRUE(r.has_tombstones());
  EXPECT_EQ(r.live_count(), 2u);
  EXPECT_EQ(r.dead_count(), 1u);
  EXPECT_TRUE(r.is_live(0));
  EXPECT_FALSE(r.is_live(1));
  EXPECT_TRUE(r.is_live(2));
  ASSERT_EQ(r.deletion_log().size(), 1u);
  EXPECT_EQ(r.deletion_log()[0], 1u);
}

TEST(RelationTest, DeleteRowRejectsBadRows) {
  Relation r = MakeSmall();
  EXPECT_THROW(r.DeleteRow(3), std::out_of_range);
  r.DeleteRow(0);
  EXPECT_THROW(r.DeleteRow(0), std::invalid_argument);  // already dead
}

TEST(RelationTest, MutationCountersSplitAppendFromDelete) {
  Relation r = MakeSmall();
  EXPECT_EQ(r.appends_ever(), 3u);
  EXPECT_EQ(r.deletes_ever(), 0u);
  EXPECT_EQ(r.compactions(), 0u);
  r.AppendRow({int64_t{4}, "d", 4.5});
  // Appends move the watermark but not the deletion counters.
  EXPECT_EQ(r.version(), 4u);
  EXPECT_EQ(r.deletes_ever(), 0u);
  EXPECT_TRUE(r.deletion_log().empty());
  EXPECT_EQ(r.appends_ever(), 4u);
  r.DeleteRow(2);
  // Deletes move the deletion counters but not the watermark.
  EXPECT_EQ(r.version(), 4u);
  EXPECT_EQ(r.deletes_ever(), 1u);
  EXPECT_EQ(r.deletion_log().size(), 1u);
  r.Compact();
  EXPECT_EQ(r.version(), 3u);
  EXPECT_TRUE(r.deletion_log().empty());
  EXPECT_EQ(r.compactions(), 1u);
  // Lifetime counters survive the compaction.
  EXPECT_EQ(r.appends_ever(), 4u);
  EXPECT_EQ(r.deletes_ever(), 1u);
}

TEST(RelationTest, CompactMatchesFreshBuildBitForBit) {
  Schema schema({{"k", DataType::kInt64}, {"s", DataType::kString}});
  Relation r("t", schema);
  // Values chosen so deleting rows 0 and 2 drops dictionary entries and
  // forces a code remap ("x" and 7 appear only in dead rows).
  r.AppendRow({int64_t{7}, "x"});
  r.AppendRow({int64_t{1}, "y"});
  r.AppendRow({int64_t{7}, "x"});
  r.AppendRow({int64_t{2}, "y"});
  r.AppendRow({int64_t{1}, Value::Null()});
  r.DeleteRow(0);
  r.DeleteRow(2);
  Relation fresh("t", schema);
  for (size_t t : {1u, 3u, 4u}) {
    fresh.AppendRow({r.Get(t, 0), r.Get(t, 1)});
  }
  EXPECT_EQ(r.Compact(), 2u);
  ASSERT_EQ(r.tuple_count(), fresh.tuple_count());
  EXPECT_FALSE(r.has_tombstones());
  EXPECT_TRUE(r.deletion_log().empty());
  for (int i = 0; i < r.attr_count(); ++i) {
    EXPECT_EQ(r.column(i).codes(), fresh.column(i).codes()) << "col " << i;
    EXPECT_EQ(r.column(i).dict_values(), fresh.column(i).dict_values());
    EXPECT_EQ(r.column(i).null_count(), fresh.column(i).null_count());
  }
}

TEST(RelationTest, CompactedCopyLeavesOriginalUntouched) {
  Relation r = MakeSmall();
  r.DeleteRow(0);
  Relation copy = r.CompactedCopy();
  EXPECT_EQ(copy.tuple_count(), 2u);
  EXPECT_FALSE(copy.has_tombstones());
  EXPECT_EQ(copy.Get(0, 1), Value("b"));
  // The copy is a fresh lifetime: counters restart from its own contents.
  EXPECT_EQ(copy.appends_ever(), 2u);
  EXPECT_EQ(copy.deletes_ever(), 0u);
  EXPECT_EQ(copy.compactions(), 0u);
  // Original still tombstoned.
  EXPECT_EQ(r.tuple_count(), 3u);
  EXPECT_EQ(r.dead_count(), 1u);
}

TEST(RelationTest, RequireNoTombstonesGuards) {
  Relation r = MakeSmall();
  EXPECT_NO_THROW(RequireNoTombstones(r, "test"));
  r.DeleteRow(1);
  EXPECT_THROW(RequireNoTombstones(r, "test"), std::logic_error);
  r.Compact();
  EXPECT_NO_THROW(RequireNoTombstones(r, "test"));
}

TEST(RelationTest, EstimatedBytesGrowsWithData) {
  Schema schema({{"x", DataType::kInt64}});
  Relation small("s", schema);
  small.AppendRow({int64_t{1}});
  Relation big("b", schema);
  for (int64_t i = 0; i < 100; ++i) big.AppendRow({i});
  EXPECT_GT(big.EstimatedBytes(), small.EstimatedBytes());
}

}  // namespace
}  // namespace fdevolve::relation
