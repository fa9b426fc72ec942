#include "relation/value.h"

#include <gtest/gtest.h>

namespace fdevolve::relation {
namespace {

TEST(ValueTest, DefaultIsNull) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_FALSE(v.is_int());
  EXPECT_EQ(v.ToString(), "NULL");
}

TEST(ValueTest, IntValue) {
  Value v(int64_t{42});
  EXPECT_TRUE(v.is_int());
  EXPECT_EQ(v.as_int(), 42);
  EXPECT_EQ(v.ToString(), "42");
}

TEST(ValueTest, DoubleValue) {
  Value v(3.5);
  EXPECT_TRUE(v.is_double());
  EXPECT_DOUBLE_EQ(v.as_double(), 3.5);
}

TEST(ValueTest, StringValueFromLiteral) {
  Value v("abc");
  EXPECT_TRUE(v.is_string());
  EXPECT_EQ(v.as_string(), "abc");
  EXPECT_EQ(v.ToString(), "abc");
}

TEST(ValueTest, EqualityWithinType) {
  EXPECT_EQ(Value(int64_t{1}), Value(int64_t{1}));
  EXPECT_NE(Value(int64_t{1}), Value(int64_t{2}));
  EXPECT_EQ(Value("x"), Value("x"));
  EXPECT_EQ(Value::Null(), Value::Null());
}

TEST(ValueTest, NoCrossTypeEquality) {
  // int 1 and double 1.0 are distinct values (no coercion).
  EXPECT_NE(Value(int64_t{1}), Value(1.0));
  EXPECT_NE(Value::Null(), Value(int64_t{0}));
}

TEST(ValueTest, OrderingNullFirst) {
  EXPECT_LT(Value::Null(), Value(int64_t{0}));
  EXPECT_LT(Value(int64_t{5}), Value(int64_t{6}));
  EXPECT_LT(Value("a"), Value("b"));
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value(int64_t{7}).Hash(), Value(int64_t{7}).Hash());
  EXPECT_EQ(Value("s").Hash(), Value("s").Hash());
  EXPECT_EQ(Value::Null().Hash(), Value::Null().Hash());
}

TEST(ValueTest, HashAgreesOnSignedZeros) {
  // -0.0 == +0.0, so they must hash alike or a hash index splits them.
  EXPECT_EQ(Value(-0.0), Value(0.0));
  EXPECT_EQ(Value(-0.0).Hash(), Value(0.0).Hash());
}

TEST(ValueTest, HashSeparatesTypes) {
  // Not a strict requirement, but int 1 / double 1.0 / "1" should not all
  // collide — that would funnel dictionary probes into one bucket.
  uint64_t hi = Value(int64_t{1}).Hash();
  uint64_t hd = Value(1.0).Hash();
  uint64_t hs = Value("1").Hash();
  EXPECT_FALSE(hi == hd && hd == hs);
}

TEST(ValueTest, MatchesType) {
  EXPECT_TRUE(Value(int64_t{1}).MatchesType(DataType::kInt64));
  EXPECT_FALSE(Value(int64_t{1}).MatchesType(DataType::kString));
  EXPECT_TRUE(Value("x").MatchesType(DataType::kString));
  // NULL matches every column type.
  EXPECT_TRUE(Value::Null().MatchesType(DataType::kInt64));
  EXPECT_TRUE(Value::Null().MatchesType(DataType::kDouble));
  EXPECT_TRUE(Value::Null().MatchesType(DataType::kString));
}

TEST(ValueTest, AccessorThrowsOnWrongType) {
  EXPECT_THROW(Value("x").as_int(), std::bad_variant_access);
  EXPECT_THROW(Value(int64_t{1}).as_string(), std::bad_variant_access);
}

}  // namespace
}  // namespace fdevolve::relation
