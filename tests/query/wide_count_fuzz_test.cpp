// Differential fuzzing of refinement chains past the dense limit.
//
// Every chain finishes on a stripped partition once its packed key misses
// the dense array (radix above max(2^16, 4n) cells). The other query fuzz
// suites mostly draw domains of at most ten values over a few hundred
// rows, so their chains rarely leave the dense array. This suite draws
// 2-5 columns of 400-5,000 values over 2k-20k rows, so the radix of every
// set it groups is past the limit, and checks on every kernel tier:
//   * counts against the sort oracle (support/sort_distinct.h), a
//     std::set of the selected rows' code tuples, and the number of groups
//     of the materializing GroupBy that hold a selected row — with
//     arbitrary byte masks through GroupCountBy(rel, attrs, mask,
//     scratch), and cached bases through RefineCountBy and
//     DistinctEvaluator::Count;
//   * materialized ids of GroupBy, RefineBy from a cached base, the
//     evaluator's GroupFor, and GroupRows over repeated, unsorted and
//     short row lists, against the std::map first-appearance oracle of
//     tests/support, plus JointGroupCount against the oracle's count.
// It covers NULLs and tombstones with and without Compact. Reproducible
// via --seed=N / FDEVOLVE_SEED.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "query/distinct.h"
#include "query/group_ids.h"
#include "query/kernels.h"
#include "relation/relation.h"
#include "support/first_appearance.h"
#include "support/fuzz_seed.h"
#include "support/sort_distinct.h"
#include "util/cpu_features.h"
#include "util/rng.h"

namespace fdevolve {
namespace {

using relation::AttrSet;
using relation::DataType;
using relation::Relation;
using relation::Schema;
using relation::Value;

/// Random relation whose columns draw from 400-5,000 values each, with
/// NULLs at `null_rate`.
Relation RandomWideRelation(util::Rng& rng, int n_attrs, size_t n_tuples,
                            double null_rate) {
  std::vector<relation::Attribute> attrs;
  std::vector<uint64_t> domains;
  for (int i = 0; i < n_attrs; ++i) {
    attrs.push_back({"a" + std::to_string(i), DataType::kInt64});
    domains.push_back(400 + rng.Below(4601));
  }
  Relation rel("wide", Schema(std::move(attrs)));
  for (size_t t = 0; t < n_tuples; ++t) {
    std::vector<Value> row;
    row.reserve(static_cast<size_t>(n_attrs));
    for (int i = 0; i < n_attrs; ++i) {
      if (rng.Chance(null_rate)) {
        row.push_back(Value::Null());
      } else {
        row.emplace_back(static_cast<int64_t>(rng.Below(domains[i])));
      }
    }
    rel.AppendRow(row);
  }
  return rel;
}

/// A random set of 2..n_attrs attributes.
AttrSet RandomWideSet(util::Rng& rng, int n_attrs) {
  std::vector<int> all(static_cast<size_t>(n_attrs));
  for (int a = 0; a < n_attrs; ++a) all[static_cast<size_t>(a)] = a;
  for (size_t i = all.size() - 1; i > 0; --i) {
    std::swap(all[i], all[rng.Below(i + 1)]);
  }
  const size_t k = 2 + rng.Below(static_cast<uint64_t>(n_attrs - 1));
  AttrSet s;
  for (size_t i = 0; i < k; ++i) s.Add(all[i]);
  return s;
}

/// True when the packed key over `attrs` has more cells than the dense
/// array admits for a pass over the relation's rows.
bool PastDenseLimit(const Relation& rel, const AttrSet& attrs) {
  double radix = 1.0;
  for (int a : attrs.ToVector()) {
    const auto& col = rel.column(a);
    radix *= static_cast<double>(col.dict_size() + (col.has_nulls() ? 1 : 0));
  }
  const double limit = std::max(
      65536.0, 4.0 * static_cast<double>(rel.tuple_count()));
  return radix > limit;
}

/// Rows `mask` selects (nullptr: every physical row).
bool Selected(const uint8_t* mask, size_t t) {
  return mask == nullptr || mask[t] != 0;
}

/// Oracle 1: distinct code tuples of the selected rows (NULL is one more
/// code, so NULLs compare equal).
size_t TupleSetCount(const Relation& rel, const AttrSet& attrs,
                     const uint8_t* mask) {
  const std::vector<int> cols = attrs.ToVector();
  std::set<std::vector<uint32_t>> seen;
  std::vector<uint32_t> key(cols.size());
  for (size_t t = 0; t < rel.tuple_count(); ++t) {
    if (!Selected(mask, t)) continue;
    for (size_t j = 0; j < cols.size(); ++j) {
      key[j] = rel.column(cols[j]).code(t);
    }
    seen.insert(key);
  }
  return seen.size();
}

/// Oracle 2: groups of the materializing GroupBy with a selected row.
size_t GroupedCount(const Relation& rel, const AttrSet& attrs,
                    const uint8_t* mask) {
  const query::Grouping g = query::GroupBy(rel, attrs);
  std::vector<uint8_t> hit(g.group_count, 0);
  size_t count = 0;
  for (size_t t = 0; t < g.ids.size(); ++t) {
    if (!Selected(mask, t) || hit[g.ids[t]] != 0) continue;
    hit[g.ids[t]] = 1;
    ++count;
  }
  return count;
}

const uint8_t* LiveMask(const Relation& rel) {
  return rel.has_tombstones() ? rel.live_bitmap().data() : nullptr;
}

/// Restores the tier selected on entry (which may itself be an
/// FDEVOLVE_CPU_FEATURES override) when a case ends.
class TierGuard {
 public:
  TierGuard() : entry_(query::kernels::SelectedTier()) {}
  ~TierGuard() { query::kernels::ForceTier(entry_); }

 private:
  util::CpuTier entry_;
};

class WideCountFuzz : public ::testing::TestWithParam<int> {
 protected:
  uint64_t seed() const { return testsupport::DeriveSeed(GetParam()); }

  static constexpr int kRounds = 6;

  /// Round `round`'s relation: 2k-20k rows, NULLs on odd rounds; rounds
  /// 2-3 tombstone a quarter of the rows and rounds 4-5 then Compact.
  Relation MakeRound(util::Rng& rng, int round, int* n_attrs) const {
    *n_attrs = 2 + static_cast<int>(rng.Below(4));
    const size_t n_tuples = 2000 + rng.Below(18001);
    const double null_rate = round % 2 == 1 ? 0.15 : 0.0;
    Relation rel = RandomWideRelation(rng, *n_attrs, n_tuples, null_rate);
    if (round >= 2) {
      for (size_t t = 0; t < rel.tuple_count(); ++t) {
        if (rng.Chance(0.25)) rel.DeleteRow(t);
      }
      if (round >= 4) rel.Compact();
    }
    return rel;
  }
};

TEST_P(WideCountFuzz, LiveCountsMatchSortTupleSetAndGroupBy) {
  TierGuard guard;
  util::Rng rng(seed());
  for (int round = 0; round < kRounds; ++round) {
    int n_attrs = 0;
    const Relation rel = MakeRound(rng, round, &n_attrs);
    for (int trial = 0; trial < 3; ++trial) {
      const AttrSet s = RandomWideSet(rng, n_attrs);
      const std::string ctx = "round=" + std::to_string(round) +
                              " trial=" + std::to_string(trial) +
                              " attrs=" + std::to_string(s.Count()) +
                              " rows=" + std::to_string(rel.tuple_count());
      ASSERT_TRUE(PastDenseLimit(rel, s)) << ctx;
      const size_t sorted = testsupport::SortDistinct(rel, s);
      EXPECT_EQ(sorted, TupleSetCount(rel, s, LiveMask(rel))) << ctx;
      EXPECT_EQ(sorted, GroupedCount(rel, s, LiveMask(rel))) << ctx;
      for (util::CpuTier tier : query::kernels::SupportedTiers()) {
        query::kernels::ForceTier(tier);
        const std::string where = ctx + " " + util::CpuTierName(tier);
        query::RefineScratch scratch;
        EXPECT_EQ(query::GroupCountBy(rel, s, scratch), sorted) << where;
        EXPECT_EQ(query::DistinctCount(rel, s), sorted) << where;
      }
    }
  }
}

TEST_P(WideCountFuzz, MaskedCountsMatchTupleSetAndGroupBy) {
  TierGuard guard;
  util::Rng rng(seed() + 17);
  // One scratch across every relation, mask and tier: marks and ids left
  // over from an earlier count must never leak into a later one.
  query::RefineScratch scratch;
  for (int round = 0; round < kRounds; ++round) {
    int n_attrs = 0;
    const Relation rel = MakeRound(rng, round, &n_attrs);
    const size_t n = rel.tuple_count();
    for (int trial = 0; trial < 4; ++trial) {
      const AttrSet s = RandomWideSet(rng, n_attrs);
      // Arbitrary nonzero bytes select a row, at densities from sparse
      // (key lookups) to nearly full; the mask may select dead rows.
      const double density = trial == 0 ? 0.01 : trial == 1 ? 0.3 : 0.9;
      std::vector<uint8_t> mask(n, 0);
      for (size_t t = 0; t < n; ++t) {
        if (trial == 3 || rng.Chance(density)) {
          mask[t] = static_cast<uint8_t>(rng.Below(256));
        }
      }
      const std::string ctx = "round=" + std::to_string(round) +
                              " trial=" + std::to_string(trial) +
                              " attrs=" + std::to_string(s.Count()) +
                              " rows=" + std::to_string(n);
      ASSERT_TRUE(PastDenseLimit(rel, s)) << ctx;
      const size_t want = TupleSetCount(rel, s, mask.data());
      EXPECT_EQ(want, GroupedCount(rel, s, mask.data())) << ctx;
      const size_t every = GroupedCount(rel, s, nullptr);
      const std::vector<uint8_t> none(n, 0);
      for (util::CpuTier tier : query::kernels::SupportedTiers()) {
        query::kernels::ForceTier(tier);
        const std::string where = ctx + " " + util::CpuTierName(tier);
        EXPECT_EQ(query::GroupCountBy(rel, s, mask.data(), scratch), want)
            << where;
        EXPECT_EQ(query::GroupCountBy(rel, s, nullptr, scratch), every)
            << where;
        EXPECT_EQ(query::GroupCountBy(rel, s, none.data(), scratch), 0u)
            << where;
      }
    }
  }
}

TEST_P(WideCountFuzz, CachedBasesCountLikeSort) {
  TierGuard guard;
  util::Rng rng(seed() + 29);
  for (int round = 0; round < kRounds; ++round) {
    int n_attrs = 0;
    const Relation rel = MakeRound(rng, round, &n_attrs);
    for (int trial = 0; trial < 3; ++trial) {
      // A base of one or two attributes refined by the rest of the set.
      const AttrSet both = RandomWideSet(rng, n_attrs);
      const std::vector<int> cols = both.ToVector();
      const size_t head = 1 + rng.Below(cols.size() - 1);
      AttrSet base_attrs;
      AttrSet rest;
      for (size_t j = 0; j < cols.size(); ++j) {
        (j < head ? base_attrs : rest).Add(cols[j]);
      }
      const std::string ctx = "round=" + std::to_string(round) +
                              " trial=" + std::to_string(trial) +
                              " base=" + std::to_string(base_attrs.Count()) +
                              " rest=" + std::to_string(rest.Count());
      ASSERT_TRUE(PastDenseLimit(rel, both)) << ctx;
      const size_t want = testsupport::SortDistinct(rel, both);
      for (util::CpuTier tier : query::kernels::SupportedTiers()) {
        query::kernels::ForceTier(tier);
        const std::string where = ctx + " " + util::CpuTierName(tier);
        query::RefineScratch scratch;
        const query::Grouping base = query::GroupBy(rel, base_attrs, scratch);
        EXPECT_EQ(query::RefineCountBy(rel, base, rest, scratch), want)
            << where;
        // The evaluator refines from its cached base: a one-attribute gap
        // counts straight off it, a wider gap materializes all but the
        // last attribute first.
        query::DistinctEvaluator eval(rel);
        eval.GroupFor(base_attrs);
        EXPECT_EQ(eval.Count(both), want) << where;
        query::DistinctEvaluator cold(rel);
        EXPECT_EQ(cold.Count(both), want) << where;
      }
    }
  }
}

TEST_P(WideCountFuzz, MaterializedIdsMatchFirstAppearanceOracle) {
  TierGuard guard;
  util::Rng rng(seed() + 43);
  // One scratch across every relation, list and tier, the way the sampled
  // monitor and the evaluator hold one.
  query::RefineScratch scratch;
  for (int round = 0; round < kRounds; ++round) {
    int n_attrs = 0;
    const Relation rel = MakeRound(rng, round, &n_attrs);
    const size_t n = rel.tuple_count();
    std::vector<uint32_t> permuted(n);
    std::iota(permuted.begin(), permuted.end(), 0u);
    for (size_t i = n; i > 1; --i) {
      std::swap(permuted[i - 1], permuted[rng.Below(i)]);
    }
    std::vector<uint32_t> repeated;  // drawn with replacement
    for (size_t i = 0; i < 4096; ++i) {
      repeated.push_back(static_cast<uint32_t>(rng.Below(n)));
    }
    // Far fewer rows than any column has values: the chain starts from
    // the one-group partition instead of a cursor per dictionary slot.
    std::vector<uint32_t> short_list;
    for (size_t i = 0; i < 48; ++i) {
      short_list.push_back(static_cast<uint32_t>(rng.Below(n)));
    }
    const std::vector<std::vector<uint32_t>> lists = {permuted, repeated,
                                                      short_list};
    for (int trial = 0; trial < 3; ++trial) {
      const AttrSet both = RandomWideSet(rng, n_attrs);
      const std::vector<int> cols = both.ToVector();
      const size_t head = 1 + rng.Below(cols.size() - 1);
      AttrSet base_attrs;
      AttrSet rest;
      for (size_t j = 0; j < cols.size(); ++j) {
        (j < head ? base_attrs : rest).Add(cols[j]);
      }
      const std::string ctx = "round=" + std::to_string(round) +
                              " trial=" + std::to_string(trial) +
                              " base=" + std::to_string(base_attrs.Count()) +
                              " rest=" + std::to_string(rest.Count()) +
                              " rows=" + std::to_string(n);
      ASSERT_TRUE(PastDenseLimit(rel, both)) << ctx;
      const query::Grouping want =
          testsupport::FirstAppearanceGrouping(rel, both);
      std::vector<query::Grouping> want_lists;
      for (const auto& list : lists) {
        want_lists.push_back(
            testsupport::FirstAppearanceGrouping(rel, list, both));
      }
      const size_t bad_row = rng.Below(n);
      for (util::CpuTier tier : query::kernels::SupportedTiers()) {
        query::kernels::ForceTier(tier);
        const std::string where = ctx + " " + util::CpuTierName(tier);
        const query::Grouping g = query::GroupBy(rel, both, scratch);
        EXPECT_EQ(g.ids, want.ids) << where;
        EXPECT_EQ(g.group_count, want.group_count) << where;

        const query::Grouping base = query::GroupBy(rel, base_attrs, scratch);
        const query::Grouping r = query::RefineBy(rel, base, rest, scratch);
        EXPECT_EQ(r.ids, want.ids) << where;
        EXPECT_EQ(r.group_count, want.group_count) << where;
        query::DistinctEvaluator eval(rel);
        eval.GroupFor(base_attrs);
        EXPECT_EQ(eval.GroupFor(both).ids, want.ids) << where;

        EXPECT_EQ(query::JointGroupCount(base,
                                         query::GroupBy(rel, rest, scratch)),
                  want.group_count)
            << where;

        // A base id past its group count throws, whichever path refines.
        query::Grouping bad = base;
        bad.ids[bad_row] = static_cast<uint32_t>(bad.group_count);
        EXPECT_THROW(query::RefineBy(rel, bad, rest, scratch),
                     std::invalid_argument)
            << where;

        for (size_t l = 0; l < lists.size(); ++l) {
          const query::Grouping got =
              query::GroupRows(rel, lists[l], both, scratch);
          EXPECT_EQ(got.ids, want_lists[l].ids) << where << " list=" << l;
          EXPECT_EQ(got.group_count, want_lists[l].group_count)
              << where << " list=" << l;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WideCountFuzz, ::testing::Range(0, 4));

}  // namespace
}  // namespace fdevolve
