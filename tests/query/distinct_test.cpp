#include "query/distinct.h"

#include <gtest/gtest.h>

#include "datagen/synthetic.h"
#include "relation/relation.h"
#include "support/sort_distinct.h"

namespace fdevolve::query {
namespace {

using relation::AttrSet;
using relation::DataType;
using relation::Relation;
using relation::RelationBuilder;
using relation::Schema;
using relation::Value;

Relation MakeRel() {
  Schema schema({{"a", DataType::kInt64}, {"b", DataType::kString}});
  return RelationBuilder("t", schema)
      .Row({int64_t{1}, "x"})
      .Row({int64_t{1}, "y"})
      .Row({int64_t{2}, "x"})
      .Row({int64_t{1}, "x"})
      .Build();
}

TEST(DistinctCountTest, HashStrategy) {
  Relation r = MakeRel();
  EXPECT_EQ(DistinctCount(r, AttrSet::Of({0})), 2u);
  EXPECT_EQ(DistinctCount(r, AttrSet::Of({1})), 2u);
  EXPECT_EQ(DistinctCount(r, AttrSet::Of({0, 1})), 3u);
}

TEST(DistinctCountTest, SortStrategyAgreesWithHash) {
  Relation r = MakeRel();
  for (auto attrs : {AttrSet::Of({0}), AttrSet::Of({1}), AttrSet::Of({0, 1})}) {
    EXPECT_EQ(testsupport::SortDistinct(r, attrs),
              DistinctCount(r, attrs, DistinctStrategy::kHash));
  }
}

TEST(DistinctCountTest, StrategiesAgreeOnSyntheticData) {
  datagen::SyntheticSpec spec;
  spec.n_attrs = 6;
  spec.n_tuples = 2000;
  spec.repair_length = 2;
  spec.seed = 3;
  Relation r = datagen::MakeSynthetic(spec);
  for (int a = 0; a < r.attr_count(); ++a) {
    for (int b = a; b < r.attr_count(); ++b) {
      AttrSet s = AttrSet::Of({a, b});
      EXPECT_EQ(testsupport::SortDistinct(r, s),
                DistinctCount(r, s, DistinctStrategy::kHash));
    }
  }
}

TEST(DistinctCountTest, EmptyAttrs) {
  Relation r = MakeRel();
  EXPECT_EQ(DistinctCount(r, AttrSet()), 1u);
}

TEST(DistinctCountTest, EmptyRelation) {
  Schema schema({{"a", DataType::kInt64}});
  Relation r("e", schema);
  EXPECT_EQ(DistinctCount(r, AttrSet::Of({0})), 0u);
  EXPECT_EQ(DistinctCount(r, AttrSet()), 0u);
  EXPECT_EQ(testsupport::SortDistinct(r, AttrSet::Of({0})), 0u);
}

TEST(DistinctEvaluatorTest, CountsMatchDirect) {
  Relation r = MakeRel();
  DistinctEvaluator eval(r);
  EXPECT_EQ(eval.Count(AttrSet::Of({0})), 2u);
  EXPECT_EQ(eval.Count(AttrSet::Of({0, 1})), 3u);
}

TEST(DistinctEvaluatorTest, CacheHitsDoNotRecompute) {
  Relation r = MakeRel();
  DistinctEvaluator eval(r);
  eval.Count(AttrSet::Of({0, 1}));
  size_t misses = eval.miss_count();
  eval.Count(AttrSet::Of({0, 1}));
  EXPECT_EQ(eval.miss_count(), misses);
}

TEST(DistinctEvaluatorTest, CountIsCountOnlyButGroupForCaches) {
  Relation r = MakeRel();
  DistinctEvaluator eval(r);
  // Single-attribute counts come from the dictionary: nothing cached.
  EXPECT_EQ(eval.Count(AttrSet::Of({0})), 2u);
  EXPECT_EQ(eval.cache_size(), 0u);
  // A multi-attribute count materializes the shared base ({0}) but not a
  // grouping for the queried set itself.
  EXPECT_EQ(eval.Count(AttrSet::Of({0, 1})), 3u);
  EXPECT_EQ(eval.cache_size(), 1u);
  // GroupFor() materializes the full set.
  eval.GroupFor(AttrSet::Of({0, 1}));
  EXPECT_EQ(eval.cache_size(), 2u);
  // And the two paths agree.
  EXPECT_EQ(eval.GroupFor(AttrSet::Of({0, 1})).group_count,
            eval.Count(AttrSet::Of({0, 1})));
}

TEST(DistinctEvaluatorTest, RefinesFromCachedSubset) {
  Relation r = MakeRel();
  DistinctEvaluator eval(r);
  eval.GroupFor(AttrSet::Of({0}));
  // Superset query must still be correct (and uses the cached base).
  EXPECT_EQ(eval.Count(AttrSet::Of({0, 1})), 3u);
  EXPECT_EQ(eval.GroupFor(AttrSet::Of({0, 1})).group_count, 3u);
  EXPECT_EQ(eval.cache_size(), 2u);
}

TEST(DistinctEvaluatorTest, MultiAttributeGapMaterializesSharedBase) {
  // The repair-search pattern: with X cached, Count(XAY) for several A must
  // reuse a shared materialized base rather than regrouping per sibling.
  datagen::SyntheticSpec spec;
  spec.n_attrs = 8;
  spec.n_tuples = 400;
  spec.repair_length = 2;
  Relation r = datagen::MakeSynthetic(spec);
  DistinctEvaluator eval(r);
  eval.GroupFor(AttrSet::Of({0}));
  for (int a = 2; a < 8; ++a) {
    AttrSet xay = AttrSet::Of({0, 1, a});
    EXPECT_EQ(eval.Count(xay), DistinctCount(r, xay)) << a;
  }
}

TEST(DistinctEvaluatorTest, GroupForExposesGrouping) {
  Relation r = MakeRel();
  DistinctEvaluator eval(r);
  const Grouping& g = eval.GroupFor(AttrSet::Of({0}));
  EXPECT_EQ(g.group_count, 2u);
  EXPECT_EQ(g.ids.size(), 4u);
}

TEST(DistinctEvaluatorTest, ManyOverlappingQueriesStayConsistent) {
  datagen::SyntheticSpec spec;
  spec.n_attrs = 8;
  spec.n_tuples = 500;
  spec.repair_length = 1;
  Relation r = datagen::MakeSynthetic(spec);
  DistinctEvaluator eval(r);
  for (int a = 0; a < 8; ++a) {
    for (int b = 0; b < 8; ++b) {
      AttrSet s = AttrSet::Of({a}).Union(AttrSet::Of({b}));
      EXPECT_EQ(eval.Count(s), DistinctCount(r, s)) << a << "," << b;
    }
  }
}

TEST(DistinctEvaluatorTest, AdvanceFoldsAppendedRows) {
  Schema schema({{"a", DataType::kInt64}, {"b", DataType::kString}});
  Relation r = RelationBuilder("t", schema)
                   .Row({int64_t{1}, "x"})
                   .Row({int64_t{2}, "y"})
                   .Build();
  DistinctEvaluator eval(r);
  EXPECT_EQ(eval.watermark(), 2u);
  EXPECT_EQ(eval.Count(AttrSet::Of({0, 1})), 2u);

  r.AppendRow({int64_t{1}, "y"});   // new (a, b) combination
  r.AppendRow({int64_t{1}, "x"});   // duplicate of row 0
  // The next query folds the suffix in automatically.
  EXPECT_EQ(eval.Count(AttrSet::Of({0, 1})), 3u);
  EXPECT_EQ(eval.Count(AttrSet::Of({0})), 2u);
  EXPECT_EQ(eval.watermark(), 4u);
}

TEST(DistinctEvaluatorTest, GroupingReferencesSurviveAdvance) {
  Schema schema({{"a", DataType::kInt64}, {"b", DataType::kInt64}});
  Relation r = RelationBuilder("t", schema)
                   .Row({int64_t{1}, int64_t{10}})
                   .Row({int64_t{2}, int64_t{10}})
                   .Build();
  DistinctEvaluator eval(r);
  const Grouping& g = eval.GroupFor(AttrSet::Of({0, 1}));
  const Grouping* addr = &g;
  ASSERT_EQ(g.ids.size(), 2u);

  r.AppendRow({int64_t{2}, int64_t{20}});
  eval.Advance();
  // Same object, extended in place; prefix ids unchanged.
  EXPECT_EQ(&eval.GroupFor(AttrSet::Of({0, 1})), addr);
  ASSERT_EQ(g.ids.size(), 3u);
  EXPECT_EQ(g.ids[0], 0u);
  EXPECT_EQ(g.ids[1], 1u);
  EXPECT_EQ(g.ids[2], 2u);
  EXPECT_EQ(g.group_count, 3u);
}

TEST(DistinctEvaluatorTest, AdvanceMaintainsDerivedGroupings) {
  // A grouping refined from a cached base must keep matching a fresh
  // computation after the base and the derived grouping both advance.
  Schema schema({{"a", DataType::kInt64},
                 {"b", DataType::kInt64},
                 {"c", DataType::kInt64}});
  Relation r("t", schema);
  for (int64_t t = 0; t < 30; ++t) {
    r.AppendRow({t % 3, t % 5, t % 2});
  }
  DistinctEvaluator eval(r);
  eval.GroupFor(AttrSet::Of({0}));
  eval.GroupFor(AttrSet::Of({0, 1}));  // derived from {0}

  for (int64_t t = 0; t < 20; ++t) {
    r.AppendRow({t % 4, t % 6, t % 2});
  }
  EXPECT_EQ(eval.Count(AttrSet::Of({0, 1})),
            DistinctCount(r, AttrSet::Of({0, 1})));
  EXPECT_EQ(eval.GroupFor(AttrSet::Of({0, 1})).ids.size(), r.tuple_count());
}

TEST(DistinctEvaluatorTest, SingleAttributeCountsAfterDeletesCacheNothing) {
  // Deleting row 5 (b's only NULL) and every a = 6 row changes both
  // single-attribute counts. They are read from the columns' live counts,
  // so they keep no refcounted grouping; only the pair takes one.
  Schema schema({{"a", DataType::kInt64}, {"b", DataType::kInt64}});
  Relation r("t", schema);
  for (int64_t t = 0; t < 1000; ++t) {
    r.AppendRow({Value(t % 7), t == 5 ? Value::Null() : Value(t % 3)});
  }
  DistinctEvaluator eval(r);
  for (size_t t = 0; t < 1000; ++t) {
    if (t == 5 || t % 7 == 6) r.DeleteRow(t);
  }
  const auto sort_count = [&](const AttrSet& s) {
    return testsupport::SortDistinct(r, s);
  };
  EXPECT_EQ(eval.Count(AttrSet::Of({0})), 6u);
  EXPECT_EQ(eval.Count(AttrSet::Of({0})), sort_count(AttrSet::Of({0})));
  EXPECT_EQ(eval.cache_size(), 0u);
  EXPECT_EQ(eval.Count(AttrSet::Of({1})), 3u);
  EXPECT_EQ(eval.Count(AttrSet::Of({1})), sort_count(AttrSet::Of({1})));
  EXPECT_EQ(eval.cache_size(), 0u);
  EXPECT_EQ(eval.Count(AttrSet::Of({0, 1})), sort_count(AttrSet::Of({0, 1})));
  EXPECT_EQ(eval.cache_size(), 1u);
}

TEST(DistinctEvaluatorTest, EmptyAttrSetAdvances) {
  Schema schema({{"a", DataType::kInt64}});
  Relation r("t", schema);
  DistinctEvaluator eval(r);
  EXPECT_EQ(eval.GroupFor(AttrSet()).group_count, 0u);
  r.AppendRow({int64_t{1}});
  r.AppendRow({int64_t{2}});
  const Grouping& g = eval.GroupFor(AttrSet());
  EXPECT_EQ(g.group_count, 1u);
  EXPECT_EQ(g.ids, (std::vector<uint32_t>{0u, 0u}));
  EXPECT_EQ(eval.Count(AttrSet()), 1u);
}

}  // namespace
}  // namespace fdevolve::query
