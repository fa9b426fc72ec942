#include "util/flat_table.h"

#include <gtest/gtest.h>

#include <unordered_map>

namespace fdevolve::util {
namespace {

TEST(FlatIdTableTest, InsertThenFind) {
  FlatIdTable t;
  bool inserted = false;
  EXPECT_EQ(t.FindOrInsert(42, 0, &inserted), 0u);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(t.FindOrInsert(7, 1, &inserted), 1u);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(t.FindOrInsert(42, 2, &inserted), 0u);
  EXPECT_FALSE(inserted);
  EXPECT_EQ(t.FindOrInsert(7, 2, &inserted), 1u);
  EXPECT_FALSE(inserted);
}

TEST(FlatIdTableTest, GrowsWhenUnderprovisionedAndMatchesReference) {
  // Start empty and insert far past the first capacity: every doubling
  // must rehash without losing or duplicating any mapping. Adversarial-ish
  // keys: dense low bits and (id << 32 | code) shapes, like the evaluator's
  // chain tables see.
  FlatIdTable t;
  std::unordered_map<uint64_t, uint32_t> ref;
  uint32_t fresh = 0;
  for (uint64_t i = 0; i < 5000; ++i) {
    const uint64_t key = (i % 37) << 32 | (i * i % 101);
    bool inserted = false;
    const uint32_t got = t.FindOrInsert(key, fresh, &inserted);
    auto [it, ref_inserted] = ref.emplace(key, fresh);
    EXPECT_EQ(inserted, ref_inserted);
    EXPECT_EQ(got, it->second);
    if (inserted) ++fresh;
  }
  // Every mapping is still there after the last doubling.
  for (const auto& [key, id] : ref) {
    bool inserted = true;
    EXPECT_EQ(t.FindOrInsert(key, fresh, &inserted), id);
    EXPECT_FALSE(inserted);
  }
}

TEST(FlatIdTableTest, WorksWithoutReset) {
  FlatIdTable t;  // first insert must self-initialize via growth
  bool inserted = false;
  EXPECT_EQ(t.FindOrInsert(9, 3, &inserted), 3u);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(t.FindOrInsert(9, 4, &inserted), 3u);
  EXPECT_FALSE(inserted);
}

}  // namespace
}  // namespace fdevolve::util
