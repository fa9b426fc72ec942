#include "util/hash.h"

#include <gtest/gtest.h>

#include <set>

namespace fdevolve::util {
namespace {

TEST(HashTest, Mix64IsDeterministic) {
  EXPECT_EQ(Mix64(42), Mix64(42));
  EXPECT_NE(Mix64(42), Mix64(43));
}

TEST(HashTest, Mix64SpreadsSequentialInputs) {
  // Consecutive integers must land far apart (avalanche).
  std::set<uint64_t> high_bytes;
  for (uint64_t i = 0; i < 256; ++i) {
    high_bytes.insert(Mix64(i) >> 56);
  }
  EXPECT_GT(high_bytes.size(), 100u);
}

TEST(HashTest, HashCombineOrderMatters) {
  uint64_t ab = HashCombine(HashCombine(0, 1), 2);
  uint64_t ba = HashCombine(HashCombine(0, 2), 1);
  EXPECT_NE(ab, ba);
}

}  // namespace
}  // namespace fdevolve::util
