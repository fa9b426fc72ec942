// PartitionScratch's generation counter: a scratch whose counter is about
// to wrap must refine exactly like a fresh one. Refine and RefineIds
// reserve one generation per row of a group, so a group longer than the
// headroom left forces the reset that otherwise comes only after ~4·10^9
// refined rows.
//
// RefineCountIfDetermines, the repair search's last-level pass, against
// the two counts it replaces: |π_{S∪{A}}| and |π_{S∪Y∪{A}}|.
#include "query/stripped_partition.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "query/group_ids.h"
#include "relation/relation.h"
#include "util/rng.h"

namespace fdevolve::query {
namespace {

constexpr uint32_t kMaxGeneration = std::numeric_limits<uint32_t>::max();
constexpr uint32_t kNullSlot = 5;

/// 72 rows in four groups of 18 (row t in group t % 4), then 8 singleton
/// groups. Codes take five values, with a NULL every 11th row.
struct Instance {
  std::vector<uint32_t> ids;
  std::vector<uint32_t> codes;
  size_t group_count = 12;

  Instance() {
    for (uint32_t t = 0; t < 80; ++t) {
      ids.push_back(t < 72 ? t % 4 : 4 + (t - 72));
      codes.push_back(t % 11 == 0 ? relation::kNullCode : (t * 7 / 3) % 5);
    }
  }

  StrippedPartition Partition() const {
    return StrippedPartition(ids.data(), ids.size(), group_count, nullptr);
  }

  /// |π_{ids, codes}| counted as distinct pairs, NULLs equal.
  size_t RefinedGroups() const {
    std::set<std::pair<uint32_t, uint32_t>> pairs;
    for (size_t t = 0; t < ids.size(); ++t) {
      pairs.emplace(ids[t], std::min(codes[t], kNullSlot));
    }
    return pairs.size();
  }
};

PartitionScratch ScratchAt(uint32_t generation) {
  PartitionScratch s;
  s.generation = generation;
  return s;
}

TEST(PartitionScratchTest, GenerationWrapRefinesLikeAFreshScratch) {
  const Instance inst;
  const StrippedPartition p = inst.Partition();
  ASSERT_EQ(p.row_count(), 72u);
  ASSERT_EQ(p.singletons(), 8u);

  PartitionScratch fresh;
  const StrippedPartition want_refined =
      p.Refine(inst.codes.data(), kNullSlot, fresh);
  ASSERT_EQ(want_refined.group_count(), inst.RefinedGroups());
  std::vector<uint32_t> want_ids(inst.ids.size());
  const size_t want_id_count =
      p.RefineIds(inst.codes.data(), kNullSlot, want_ids.data(), fresh);
  ASSERT_EQ(want_id_count, inst.RefinedGroups());
  const size_t want_count = p.RefineCount(inst.codes.data(), kNullSlot, fresh);
  ASSERT_EQ(want_count, inst.RefinedGroups());

  // Headroom 0, 1 and 3 wrap on the first group, before any mark is set;
  // headroom 20 fits the first group of 18, so the second one wraps with
  // the first group's marks still in place.
  for (const uint32_t headroom : {0u, 1u, 3u, 20u}) {
    const uint32_t start = kMaxGeneration - headroom;
    PartitionScratch s = ScratchAt(start);
    EXPECT_TRUE(p.Refine(inst.codes.data(), kNullSlot, s) == want_refined)
        << "headroom=" << headroom;
    EXPECT_LT(s.generation, start) << "headroom=" << headroom;

    s = ScratchAt(start);
    std::vector<uint32_t> ids(inst.ids.size());
    EXPECT_EQ(p.RefineIds(inst.codes.data(), kNullSlot, ids.data(), s),
              want_id_count)
        << "headroom=" << headroom;
    EXPECT_EQ(ids, want_ids) << "headroom=" << headroom;

    // RefineCount takes one generation per group: four groups wrap on the
    // fourth with headroom 3 or less.
    s = ScratchAt(start);
    EXPECT_EQ(p.RefineCount(inst.codes.data(), kNullSlot, s), want_count)
        << "headroom=" << headroom;

    // All three in sequence on one scratch, so each pass starts from the
    // marks and generation the previous one left.
    s = ScratchAt(start);
    EXPECT_TRUE(p.Refine(inst.codes.data(), kNullSlot, s) == want_refined)
        << "headroom=" << headroom;
    std::fill(ids.begin(), ids.end(), 0u);
    EXPECT_EQ(p.RefineIds(inst.codes.data(), kNullSlot, ids.data(), s),
              want_id_count);
    EXPECT_EQ(ids, want_ids) << "headroom=" << headroom;
    EXPECT_EQ(p.RefineCount(inst.codes.data(), kNullSlot, s), want_count)
        << "headroom=" << headroom;
  }
}

/// Columns x, a, y1, y2 over `n` rows. y1 and y2 are functions of
/// (x, a) except on a `noise` share of rows, so the (x, a) groups are
/// often but not always constant on Y. a, y1 and y2 hold NULLs.
relation::Relation LastLevelInstance(uint64_t seed, size_t n, double noise) {
  using relation::DataType;
  using relation::Value;
  relation::Relation rel(
      "last_level",
      relation::Schema({{"x", DataType::kInt64},
                        {"a", DataType::kInt64},
                        {"y1", DataType::kInt64},
                        {"y2", DataType::kString}}));
  util::Rng rng(seed);
  for (size_t t = 0; t < n; ++t) {
    const auto x = static_cast<int64_t>(rng.Below(6));
    const bool a_null = rng.Chance(0.15);
    const auto a = static_cast<int64_t>(rng.Below(5));
    const int64_t key = x * 7 + (a_null ? 5 : a);
    int64_t f1 = (key * 5) % 4;
    int64_t f2 = (key * 3) % 3;
    if (rng.Chance(noise)) f1 = static_cast<int64_t>(rng.Below(4));
    if (rng.Chance(noise)) f2 = static_cast<int64_t>(rng.Below(3));
    rel.AppendRow({Value(x), a_null ? Value::Null() : Value(a),
                   f1 == 3 ? Value::Null() : Value(f1),
                   f2 == 2 ? Value::Null() : Value("v" + std::to_string(f2))});
  }
  return rel;
}

TEST(StrippedPartitionTest, RefineCountIfDeterminesMatchesTwoCountOracle) {
  const relation::AttrSet x_only = relation::AttrSet::Of({0});
  size_t exact = 0;
  size_t violated = 0;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    for (const double noise : {0.0, 0.002, 0.05}) {
      const relation::Relation rel =
          LastLevelInstance(seed, 40 + 30 * seed, noise);
      const StrippedPartition p =
          StrippedPartition::FromGrouping(rel, GroupBy(rel, x_only));
      // One-attribute Y through its codes (NULLs as kNullCode), and a
      // two-attribute Y through GroupBy ids.
      const std::vector<uint32_t> y12 =
          GroupBy(rel, relation::AttrSet::Of({2, 3})).ids;
      const struct {
        relation::AttrSet attrs;
        const uint32_t* ids;
      } ys[] = {{relation::AttrSet::Of({2}), rel.column(2).codes().data()},
                {relation::AttrSet::Of({3}), rel.column(3).codes().data()},
                {relation::AttrSet::Of({2, 3}), y12.data()}};
      for (const auto& y : ys) {
        PartitionScratch oracle_scratch;
        const size_t with_a = p.RefineCount(rel, 1, oracle_scratch);
        const size_t with_ay =
            p.Refine(rel, y.attrs, oracle_scratch)
                .RefineCount(rel, 1, oracle_scratch);
        const std::optional<size_t> want =
            with_a == with_ay ? std::optional<size_t>(with_a) : std::nullopt;
        (want ? exact : violated) += 1;

        PartitionScratch fresh;
        EXPECT_EQ(p.RefineCountIfDetermines(rel, 1, y.ids, fresh), want)
            << "seed=" << seed << " noise=" << noise;
        // Again on the marks and Y ids the first pass left.
        EXPECT_EQ(p.RefineCountIfDetermines(rel, 1, y.ids, fresh), want);
        // On a scratch about to wrap: the pass reserves a generation per
        // row of a group, so headroom 0-3 wraps on the first group, and 20
        // or 100 on a later one with the earlier groups' marks in place.
        for (const uint32_t headroom : {0u, 1u, 3u, 20u, 100u}) {
          PartitionScratch s = ScratchAt(kMaxGeneration - headroom);
          EXPECT_EQ(p.RefineCountIfDetermines(rel, 1, y.ids, s), want)
              << "seed=" << seed << " headroom=" << headroom;
        }
      }
    }
  }
  // Both outcomes are exercised.
  EXPECT_GT(exact, 20u);
  EXPECT_GT(violated, 20u);
}

TEST(StrippedPartitionTest, RefineCountIfDeterminesOnRawCodes) {
  // The codes form over Instance's groups: Y = the codes themselves is
  // always determined (NULLs equal), Y = the row index never is once a
  // group holds two rows with one slot, and a Y constant per group is
  // determined whatever the codes.
  const Instance inst;
  const StrippedPartition p = inst.Partition();
  std::vector<uint32_t> row_ids(inst.ids.size());
  for (uint32_t t = 0; t < row_ids.size(); ++t) row_ids[t] = t;
  PartitionScratch s = ScratchAt(kMaxGeneration - 2);
  EXPECT_EQ(p.RefineCountIfDetermines(inst.codes.data(), kNullSlot,
                                      inst.codes.data(), s),
            std::optional<size_t>(inst.RefinedGroups()));
  EXPECT_EQ(p.RefineCountIfDetermines(inst.codes.data(), kNullSlot,
                                      row_ids.data(), s),
            std::nullopt);
  EXPECT_EQ(p.RefineCountIfDetermines(inst.codes.data(), kNullSlot,
                                      inst.ids.data(), s),
            std::optional<size_t>(inst.RefinedGroups()));
}

}  // namespace
}  // namespace fdevolve::query
