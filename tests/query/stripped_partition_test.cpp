// PartitionScratch's generation counter: a scratch whose counter is about
// to wrap must refine exactly like a fresh one. Refine and RefineIds
// reserve one generation per row of a group, so a group longer than the
// headroom left forces the reset that otherwise comes only after ~4·10^9
// refined rows.
#include "query/stripped_partition.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <set>
#include <utility>
#include <vector>

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

}  // namespace
}  // namespace fdevolve::query
