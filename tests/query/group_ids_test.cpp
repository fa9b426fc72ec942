#include "query/group_ids.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <tuple>
#include <vector>

namespace fdevolve::query {
namespace {

using relation::AttrSet;
using relation::DataType;
using relation::Relation;
using relation::RelationBuilder;
using relation::Schema;
using relation::Value;

Relation MakeRel() {
  Schema schema({{"a", DataType::kInt64},
                 {"b", DataType::kString},
                 {"c", DataType::kInt64}});
  return RelationBuilder("t", schema)
      .Row({int64_t{1}, "x", int64_t{10}})
      .Row({int64_t{1}, "y", int64_t{10}})
      .Row({int64_t{2}, "x", int64_t{20}})
      .Row({int64_t{1}, "x", int64_t{30}})
      .Row({int64_t{2}, "x", int64_t{20}})
      .Build();
}

TEST(GroupByTest, SingleAttribute) {
  Relation r = MakeRel();
  Grouping g = GroupBy(r, AttrSet::Of({0}));
  EXPECT_EQ(g.group_count, 2u);
  EXPECT_EQ(g.ids[0], g.ids[1]);
  EXPECT_EQ(g.ids[0], g.ids[3]);
  EXPECT_EQ(g.ids[2], g.ids[4]);
  EXPECT_NE(g.ids[0], g.ids[2]);
}

TEST(GroupByTest, TwoAttributes) {
  Relation r = MakeRel();
  Grouping g = GroupBy(r, AttrSet::Of({0, 1}));
  // (1,x) (1,y) (2,x) (1,x) (2,x) -> 3 groups.
  EXPECT_EQ(g.group_count, 3u);
  EXPECT_EQ(g.ids[0], g.ids[3]);
  EXPECT_EQ(g.ids[2], g.ids[4]);
}

TEST(GroupByTest, EmptyAttrSetIsOneGroup) {
  Relation r = MakeRel();
  Grouping g = GroupBy(r, AttrSet());
  EXPECT_EQ(g.group_count, 1u);
  for (uint32_t id : g.ids) EXPECT_EQ(id, 0u);
}

TEST(GroupByTest, EmptyRelation) {
  Schema schema({{"a", DataType::kInt64}});
  Relation r("e", schema);
  Grouping g = GroupBy(r, AttrSet::Of({0}));
  EXPECT_EQ(g.group_count, 0u);
  EXPECT_TRUE(g.ids.empty());
}

TEST(GroupByTest, IdsAreDense) {
  Relation r = MakeRel();
  Grouping g = GroupBy(r, AttrSet::Of({0, 1, 2}));
  uint32_t max_id = 0;
  for (uint32_t id : g.ids) max_id = std::max(max_id, id);
  EXPECT_EQ(static_cast<size_t>(max_id) + 1, g.group_count);
}

TEST(GroupByTest, IdsAssignedInFirstAppearanceOrder) {
  Relation r = MakeRel();
  Grouping g = GroupBy(r, AttrSet::Of({0}));
  EXPECT_EQ(g.ids[0], 0u);  // value 1 first seen at t0
  EXPECT_EQ(g.ids[2], 1u);  // value 2 first seen at t2
}

TEST(GroupByTest, NullsGroupTogether) {
  Schema schema({{"a", DataType::kInt64}});
  Relation r("n", schema);
  r.AppendRow({Value::Null()});
  r.AppendRow({int64_t{1}});
  r.AppendRow({Value::Null()});
  Grouping g = GroupBy(r, AttrSet::Of({0}));
  EXPECT_EQ(g.group_count, 2u);
  EXPECT_EQ(g.ids[0], g.ids[2]);
  EXPECT_NE(g.ids[0], g.ids[1]);
}

TEST(GroupRowsTest, GroupsTheListedRowsInListOrder) {
  Relation r = MakeRel();
  RefineScratch scratch;
  // Rows 4, 0, 2, 3, 0 project on (a, b) to (2,x) (1,x) (2,x) (1,x) (1,x):
  // ids follow first appearance along the list, repeats included.
  Grouping g = GroupRows(r, {4, 0, 2, 3, 0}, AttrSet::Of({0, 1}), scratch);
  EXPECT_EQ(g.group_count, 2u);
  EXPECT_EQ(g.ids, (std::vector<uint32_t>{0, 1, 0, 1, 1}));
  // Adding c splits row 3 (c = 30) from row 0 (c = 10).
  g = GroupRows(r, {4, 0, 2, 3, 0}, AttrSet::Of({0, 1, 2}), scratch);
  EXPECT_EQ(g.group_count, 3u);
  EXPECT_EQ(g.ids, (std::vector<uint32_t>{0, 1, 0, 2, 1}));
}

TEST(GroupRowsTest, EmptyListAndEmptyAttrSet) {
  Relation r = MakeRel();
  RefineScratch scratch;
  Grouping none = GroupRows(r, {}, AttrSet::Of({0}), scratch);
  EXPECT_EQ(none.group_count, 0u);
  EXPECT_TRUE(none.ids.empty());
  Grouping one = GroupRows(r, {3, 1}, AttrSet(), scratch);
  EXPECT_EQ(one.group_count, 1u);
  EXPECT_EQ(one.ids, (std::vector<uint32_t>{0, 0}));
}

TEST(GroupRowsTest, OutOfRangeRowThrows) {
  Relation r = MakeRel();
  RefineScratch scratch;
  EXPECT_THROW(GroupRows(r, {0, 5}, AttrSet::Of({0}), scratch),
               std::invalid_argument);
  EXPECT_THROW(GroupRows(r, {5}, AttrSet(), scratch), std::invalid_argument);
}

TEST(RefineByTest, MatchesDirectGroupBy) {
  Relation r = MakeRel();
  Grouping base = GroupBy(r, AttrSet::Of({0}));
  Grouping refined = RefineBy(r, base, 1);
  Grouping direct = GroupBy(r, AttrSet::Of({0, 1}));
  EXPECT_EQ(refined.group_count, direct.group_count);
  // Same partition: tuples share refined id iff they share direct id.
  for (size_t i = 0; i < r.tuple_count(); ++i) {
    for (size_t j = i + 1; j < r.tuple_count(); ++j) {
      EXPECT_EQ(refined.ids[i] == refined.ids[j],
                direct.ids[i] == direct.ids[j]);
    }
  }
}

TEST(RefineByTest, RefineBySetMatchesDirect) {
  Relation r = MakeRel();
  Grouping base = GroupBy(r, AttrSet::Of({0}));
  Grouping refined = RefineBy(r, base, AttrSet::Of({1, 2}));
  Grouping direct = GroupBy(r, AttrSet::Of({0, 1, 2}));
  EXPECT_EQ(refined.group_count, direct.group_count);
}

TEST(RefineByTest, SizeMismatchThrows) {
  Relation r = MakeRel();
  Grouping wrong;
  wrong.ids = {0, 0};
  wrong.group_count = 1;
  EXPECT_THROW(RefineBy(r, wrong, 1), std::invalid_argument);
}

TEST(RefineByTest, OutOfRangeIdsThrowInsteadOfCorrupting) {
  // Grouping is an open struct; a base that understates group_count must
  // not drive the dense path out of bounds.
  Relation r = MakeRel();
  Grouping lying;
  lying.ids = {4, 0, 1, 2, 3};  // id 4 >= group_count
  lying.group_count = 3;
  EXPECT_THROW(RefineBy(r, lying, 1), std::invalid_argument);
}

TEST(RefineByTest, BaseClaimingMoreGroupsThanRowsThrows) {
  // Every id is in range, but the claim is malformed: a base of n rows
  // holds at most n groups, and no call may size per-group scratch by it.
  Relation r = MakeRel();
  Grouping huge;
  huge.ids.assign(r.tuple_count(), 0);
  huge.group_count = size_t{1} << 40;
  EXPECT_THROW(RefineBy(r, huge, 1), std::invalid_argument);
  EXPECT_THROW(RefineBy(r, huge, AttrSet::Of({1, 2})), std::invalid_argument);
  EXPECT_THROW(RefineCountBy(r, huge, AttrSet::Of({1})),
               std::invalid_argument);
}

// Once a chain's packed key misses the dense array it finishes on a
// stripped partition: the counts match std::set oracles, with NULLs, a
// row mask and cached bases, and the materializing GroupBy over one scratch
// numbers the same groups.
TEST(GroupCountByTest, PastTheDenseLimitMatchesTupleSets) {
  Relation r("wide", Schema({{"a", DataType::kInt64},
                             {"b", DataType::kInt64},
                             {"c", DataType::kInt64}}));
  std::set<std::tuple<int64_t, int64_t, int64_t>> ab, abc, ab_even;
  for (int64_t t = 0; t < 3000; ++t) {
    const int64_t a = (t * 7) % 1000;
    const int64_t b = (t * 13) % 997;
    const int64_t c = t % 300;
    // b is NULL on every 11th row; NULLs group together.
    const Value vb = t % 11 == 0 ? Value::Null() : Value(b);
    r.AppendRow({Value(a), vb, Value(c)});
    const int64_t key_b = t % 11 == 0 ? -1 : b;
    ab.insert({a, key_b, 0});
    abc.insert({a, key_b, c});
    if (t % 2 == 0) ab_even.insert({a, key_b, 0});
  }
  // Radix 1000 * 998 and up, far past the 65536-cell limit of 3000 rows.
  const AttrSet attrs_ab = AttrSet::Of({0, 1});
  const AttrSet attrs_abc = AttrSet::Of({0, 1, 2});
  std::vector<uint8_t> even(r.tuple_count(), 0);
  for (size_t t = 0; t < even.size(); t += 2) even[t] = 1;

  RefineScratch s;
  EXPECT_EQ(GroupCountBy(r, attrs_ab, s), ab.size());
  EXPECT_EQ(GroupCountBy(r, attrs_abc, s), abc.size());
  EXPECT_EQ(GroupCountBy(r, attrs_ab, even.data(), s), ab_even.size());
  const Grouping base = GroupBy(r, AttrSet::Of({0}), s);
  EXPECT_EQ(RefineCountBy(r, base, AttrSet::Of({1}), s), ab.size());
  EXPECT_EQ(RefineCountBy(r, base, AttrSet::Of({1, 2}), s), abc.size());
  EXPECT_EQ(GroupBy(r, attrs_ab, s).group_count, ab.size());
  EXPECT_EQ(GroupBy(r, attrs_abc, s).group_count, abc.size());
}

TEST(JointGroupCountTest, OutOfRangeIdsThrow) {
  Grouping a;
  a.ids = {0, 1, 5};  // 5 >= group_count
  a.group_count = 2;
  Grouping b;
  b.ids = {0, 0, 0};
  b.group_count = 1;
  EXPECT_THROW(JointGroupCount(a, b), std::invalid_argument);
}

TEST(JointGroupCountTest, MatchesUnionGroupBy) {
  Relation r = MakeRel();
  Grouping ga = GroupBy(r, AttrSet::Of({0}));
  Grouping gb = GroupBy(r, AttrSet::Of({2}));
  Grouping gu = GroupBy(r, AttrSet::Of({0, 2}));
  EXPECT_EQ(JointGroupCount(ga, gb), gu.group_count);
}

TEST(JointGroupCountTest, MoreGroupsThanRowsThrows) {
  Grouping huge;
  huge.ids.assign(100, 0);
  huge.group_count = size_t{1} << 40;
  Grouping one;
  one.ids.assign(100, 0);
  one.group_count = 1;
  EXPECT_THROW(JointGroupCount(huge, one), std::invalid_argument);
  EXPECT_THROW(JointGroupCount(one, huge), std::invalid_argument);
}

TEST(JointGroupCountTest, SizeMismatchThrows) {
  Grouping a;
  a.ids = {0};
  a.group_count = 1;
  Grouping b;
  EXPECT_THROW(JointGroupCount(a, b), std::invalid_argument);
}

}  // namespace
}  // namespace fdevolve::query
