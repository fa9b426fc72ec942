// Differential and property fuzzing of the distinct-count engine.
//
// DistinctCount documents that kSort and kHash agree; this suite enforces it
// on randomized relations — including NULL-bearing columns (kNullCode),
// empty attribute sets, and empty relations — and checks that the
// evaluator's cache-refined groupings and count-only path match a from-
// scratch GroupBy. The repair search's stripped partitions are one more
// implementation under test: their counts and refinement chains must match
// the refinement engine, with and without tombstones. Reproducible via
// --seed=N / FDEVOLVE_SEED.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "query/distinct.h"
#include "query/stripped_partition.h"
#include "relation/relation.h"
#include "support/fuzz_seed.h"
#include "util/rng.h"

namespace fdevolve {
namespace {

using relation::AttrSet;
using relation::DataType;
using relation::Relation;
using relation::Schema;
using relation::Value;

/// Random relation mixing int columns with NULLs at a per-column rate, so
/// kNullCode shows up in the refinement paths.
Relation RandomNullableRelation(uint64_t seed, int n_attrs, size_t n_tuples,
                                size_t domain, double null_rate) {
  std::vector<relation::Attribute> attrs;
  for (int i = 0; i < n_attrs; ++i) {
    attrs.push_back({"a" + std::to_string(i), DataType::kInt64});
  }
  Relation rel("fuzz", Schema(std::move(attrs)));
  util::Rng rng(seed);
  for (size_t t = 0; t < n_tuples; ++t) {
    std::vector<Value> row;
    row.reserve(static_cast<size_t>(n_attrs));
    for (int i = 0; i < n_attrs; ++i) {
      if (rng.Chance(null_rate)) {
        row.push_back(Value::Null());
      } else {
        row.emplace_back(static_cast<int64_t>(rng.Below(domain)));
      }
    }
    rel.AppendRow(row);
  }
  return rel;
}

/// Tombstones each row with probability `rate`.
void DeleteRandomRows(Relation& rel, util::Rng& rng, double rate) {
  for (size_t t = 0; t < rel.tuple_count(); ++t) {
    if (rng.Chance(rate)) rel.DeleteRow(t);
  }
}

AttrSet RandomSubset(util::Rng& rng, int n_attrs, double p) {
  AttrSet s;
  for (int a = 0; a < n_attrs; ++a) {
    if (rng.Chance(p)) s.Add(a);
  }
  return s;
}

/// True if the two id vectors describe the same partition (group-for-group
/// equivalent), checked in O(n) via first-occurrence representatives.
bool SamePartitionIds(const std::vector<uint32_t>& a,
                      const std::vector<uint32_t>& b, size_t groups_a,
                      size_t groups_b) {
  if (a.size() != b.size() || groups_a != groups_b) return false;
  constexpr size_t kUnset = static_cast<size_t>(-1);
  std::vector<size_t> first_a(groups_a, kUnset);
  std::vector<size_t> first_b(groups_b, kUnset);
  for (size_t t = 0; t < a.size(); ++t) {
    if (first_a[a[t]] == kUnset) first_a[a[t]] = t;
    if (first_b[b[t]] == kUnset) first_b[b[t]] = t;
    if (first_a[a[t]] != first_b[b[t]]) return false;
  }
  return true;
}

class DistinctFuzz : public ::testing::TestWithParam<int> {
 protected:
  uint64_t seed() const { return testsupport::DeriveSeed(GetParam()); }
};

TEST_P(DistinctFuzz, SortAndHashAgreeWithNulls) {
  util::Rng rng(seed());
  for (int round = 0; round < 6; ++round) {
    const int n_attrs = 2 + static_cast<int>(rng.Below(5));
    const size_t n_tuples = rng.Below(300);  // 0 is a valid (empty) instance
    const size_t domain = 1 + rng.Below(8);
    const double null_rate = round % 2 == 0 ? 0.0 : 0.2;
    Relation rel = RandomNullableRelation(seed() + static_cast<uint64_t>(round),
                                          n_attrs, n_tuples, domain, null_rate);
    for (int trial = 0; trial < 8; ++trial) {
      AttrSet s = RandomSubset(rng, n_attrs, 0.4);  // may be empty
      const size_t hash = query::DistinctCount(rel, s,
                                               query::DistinctStrategy::kHash);
      const size_t sort = query::DistinctCount(rel, s,
                                               query::DistinctStrategy::kSort);
      EXPECT_EQ(hash, sort)
          << "tuples=" << n_tuples << " attrs=" << s.Count()
          << " nulls=" << null_rate;
    }
  }
}

TEST_P(DistinctFuzz, SortAndHashAgreeOnEdgeCases) {
  // Deterministic edges the random sweep could miss: empty relation with
  // and without attrs, all-NULL column, single attribute.
  Relation empty = RandomNullableRelation(seed(), 3, 0, 4, 0.0);
  for (auto s : {AttrSet(), AttrSet::Of({0}), AttrSet::Of({0, 2})}) {
    EXPECT_EQ(query::DistinctCount(empty, s, query::DistinctStrategy::kHash),
              query::DistinctCount(empty, s, query::DistinctStrategy::kSort));
  }
  Relation all_null = RandomNullableRelation(seed() + 1, 2, 50, 4, 1.0);
  for (auto s : {AttrSet::Of({0}), AttrSet::Of({0, 1})}) {
    EXPECT_EQ(query::DistinctCount(all_null, s,
                                   query::DistinctStrategy::kHash),
              query::DistinctCount(all_null, s,
                                   query::DistinctStrategy::kSort));
    EXPECT_EQ(query::DistinctCount(all_null, s), 1u);
  }
}

TEST_P(DistinctFuzz, CacheRefinedGroupingMatchesScratchGroupBy) {
  util::Rng rng(seed() + 101);
  Relation rel = RandomNullableRelation(seed() + 101, 6, 250, 5, 0.15);
  query::DistinctEvaluator eval(rel);
  // Issue a chain of overlapping GroupFor queries so later ones refine
  // cached subsets; each must be group-for-group equivalent to a scratch
  // GroupBy.
  AttrSet grow;
  for (int trial = 0; trial < 12; ++trial) {
    AttrSet s = trial % 3 == 2 ? grow : RandomSubset(rng, 6, 0.4);
    grow = grow.Union(s);
    const query::Grouping& cached = eval.GroupFor(s);
    query::Grouping scratch = query::GroupBy(rel, s);
    EXPECT_EQ(cached.group_count, scratch.group_count);
    EXPECT_TRUE(SamePartitionIds(cached.ids, scratch.ids, cached.group_count,
                                 scratch.group_count))
        << "attrs=" << s.Count() << " trial=" << trial;
  }
}

TEST_P(DistinctFuzz, CountOnlyAgreesWithMaterializingPath) {
  util::Rng rng(seed() + 202);
  Relation rel = RandomNullableRelation(seed() + 202, 6, 250, 5, 0.15);
  query::DistinctEvaluator counting(rel);
  query::DistinctEvaluator grouping(rel);
  for (int trial = 0; trial < 20; ++trial) {
    AttrSet s = RandomSubset(rng, 6, 0.4);
    const size_t count_only = counting.Count(s);
    const size_t materialized = grouping.GroupFor(s).group_count;
    EXPECT_EQ(count_only, materialized) << "trial=" << trial;
    EXPECT_EQ(count_only, query::GroupCountBy(rel, s));
  }
}

/// Groups of π_attrs with exactly one live row: what a stripped partition
/// must count as singletons instead of keeping.
size_t LiveSingletons(const Relation& rel, const AttrSet& attrs) {
  const query::Grouping g = query::GroupBy(rel, attrs);
  std::vector<size_t> live_rows(g.group_count, 0);
  for (size_t t = 0; t < g.ids.size(); ++t) {
    if (rel.is_live(t)) ++live_rows[g.ids[t]];
  }
  size_t singletons = 0;
  for (size_t n : live_rows) singletons += n == 1 ? 1 : 0;
  return singletons;
}

TEST_P(DistinctFuzz, StrippedPartitionMatchesRefinementEngine) {
  util::Rng rng(seed() + 303);
  // One scratch across every relation and attribute: marks left over from
  // an earlier pass must never leak into a later count.
  query::PartitionScratch scratch;
  for (int round = 0; round < 8; ++round) {
    const int n_attrs = 3 + static_cast<int>(rng.Below(4));
    const size_t n_tuples = rng.Below(300);
    const size_t domain = 1 + rng.Below(8);
    const double null_rate = round % 2 == 0 ? 0.0 : 0.2;
    Relation rel =
        RandomNullableRelation(seed() + 303 + static_cast<uint64_t>(round),
                               n_attrs, n_tuples, domain, null_rate);
    if (round % 4 >= 2) DeleteRandomRows(rel, rng, 0.3);
    for (int trial = 0; trial < 6; ++trial) {
      const AttrSet s = RandomSubset(rng, n_attrs, 0.3);  // may be empty
      const query::Grouping g = query::GroupBy(rel, s);
      const auto p = query::StrippedPartition::FromGrouping(rel, g);
      EXPECT_EQ(p.group_count(), query::GroupCountBy(rel, s))
          << "round=" << round << " trial=" << trial;
      EXPECT_EQ(p.row_count() + p.singletons(), rel.live_count());
      EXPECT_EQ(p.singletons(), LiveSingletons(rel, s));
      for (int a = 0; a < n_attrs; ++a) {
        EXPECT_EQ(p.RefineCount(rel, a, scratch),
                  query::RefineCountBy(rel, g, AttrSet::Of({a})))
            << "round=" << round << " trial=" << trial << " attr=" << a;
      }
      // Chains of up to three refinements, possibly repeating an attribute
      // already in the set, against a from-scratch count of the union.
      query::StrippedPartition chain = p;
      AttrSet unioned = s;
      for (int depth = 1; depth <= 3; ++depth) {
        const int a =
            static_cast<int>(rng.Below(static_cast<uint64_t>(n_attrs)));
        const size_t predicted = chain.RefineCount(rel, a, scratch);
        chain = chain.Refine(rel, a, scratch);
        unioned.Add(a);
        const size_t want = query::GroupCountBy(rel, unioned);
        EXPECT_EQ(chain.group_count(), want)
            << "round=" << round << " trial=" << trial << " depth=" << depth;
        EXPECT_EQ(predicted, want);
        EXPECT_EQ(chain.row_count() + chain.singletons(), rel.live_count());
        EXPECT_EQ(chain.singletons(), LiveSingletons(rel, unioned));
      }
      // The whole chain in one call (an empty set is a copy).
      const AttrSet extra = RandomSubset(rng, n_attrs, 0.3);
      EXPECT_EQ(p.Refine(rel, extra, scratch).group_count(),
                query::GroupCountBy(rel, s.Union(extra)))
          << "round=" << round << " trial=" << trial;
    }
  }
}

TEST_P(DistinctFuzz, StrippedPartitionEdgeCases) {
  query::PartitionScratch scratch;
  const std::vector<AttrSet> sets = {AttrSet(), AttrSet::Of({0}),
                                     AttrSet::Of({0, 1})};

  // Empty relation: no groups at all, whatever the attributes.
  Relation empty = RandomNullableRelation(seed(), 3, 0, 4, 0.0);
  for (const AttrSet& s : sets) {
    const auto p =
        query::StrippedPartition::FromGrouping(empty, query::GroupBy(empty, s));
    EXPECT_EQ(p.group_count(), 0u);
    EXPECT_EQ(p.RefineCount(empty, 2, scratch), 0u);
    EXPECT_EQ(p.Refine(empty, 2, scratch).group_count(), 0u);
  }
  EXPECT_EQ(query::StrippedPartition().RefineCount(empty, 0, scratch), 0u);

  // Every row tombstoned: groups whose rows are all dead disappear.
  Relation dead = RandomNullableRelation(seed() + 1, 3, 40, 3, 0.2);
  for (size_t t = 0; t < dead.tuple_count(); ++t) dead.DeleteRow(t);
  for (const AttrSet& s : sets) {
    const query::Grouping g = query::GroupBy(dead, s);
    const auto p = query::StrippedPartition::FromGrouping(dead, g);
    EXPECT_EQ(p.group_count(), 0u);
    EXPECT_EQ(p.row_count(), 0u);
    EXPECT_EQ(p.RefineCount(dead, 2, scratch),
              query::RefineCountBy(dead, g, AttrSet::Of({2})));
    EXPECT_EQ(p.Refine(dead, 2, scratch).group_count(), 0u);
  }

  // All singletons: a key column keeps no rows, and no refinement can
  // add a group.
  Relation keyed("keyed", Schema({{"k", DataType::kInt64},
                                  {"v", DataType::kInt64}}));
  util::Rng rng(seed() + 2);
  for (int64_t t = 0; t < 60; ++t) {
    keyed.AppendRow({Value(t), Value(static_cast<int64_t>(rng.Below(3)))});
  }
  const auto key = query::StrippedPartition::FromGrouping(
      keyed, query::GroupBy(keyed, AttrSet::Of({0})));
  EXPECT_EQ(key.row_count(), 0u);
  EXPECT_EQ(key.singletons(), 60u);
  EXPECT_EQ(key.RefineCount(keyed, 1, scratch), 60u);
  const auto refined = key.Refine(keyed, 1, scratch);
  EXPECT_EQ(refined.singletons(), 60u);
  EXPECT_EQ(refined.row_count(), 0u);

  // Misuse is an error, not a silent miscount.
  EXPECT_THROW(query::StrippedPartition::FromGrouping(keyed, query::Grouping{}),
               std::invalid_argument);
  query::Grouping lying = query::GroupBy(keyed, AttrSet::Of({0}));
  lying.group_count = 1;  // 60 distinct ids claim to fit in one
  EXPECT_THROW(query::StrippedPartition::FromGrouping(keyed, lying),
               std::invalid_argument);
  EXPECT_THROW(key.RefineCount(dead, 0, scratch), std::invalid_argument);
  EXPECT_THROW(key.Refine(dead, 0, scratch), std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DistinctFuzz, ::testing::Range(0, 8));

}  // namespace
}  // namespace fdevolve
