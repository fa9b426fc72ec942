// Randomized check of relation::Column's value→code index and live
// counts: FindCode must equal a linear scan of the dictionary, and the
// per-code counts, NULL count, distinct count and width must equal a scan
// of the codes, over Append streams that cross several index doublings,
// with NULLs, NaN entries (a fresh code per append) and both signed
// zeros, and again after Compact and after FromEncoded (each rebuilds the
// index and the counts). Reproducible via --seed=N / FDEVOLVE_SEED.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "relation/relation.h"
#include "support/column_scan.h"
#include "support/fuzz_seed.h"
#include "util/rng.h"

namespace fdevolve::relation {
namespace {

/// Linear-scan reference: the first dictionary code equal to `v`.
uint32_t ScanCode(const Column& col, const Value& v) {
  for (uint32_t c = 0; c < col.dict_size(); ++c) {
    if (col.DictValue(c) == v) return c;
  }
  return kNullCode;
}

/// A non-NULL value of `type` drawn from a domain of about `domain`
/// values.
Value RandomValue(util::Rng& rng, DataType type, uint64_t domain) {
  switch (type) {
    case DataType::kInt64:
      return Value(static_cast<int64_t>(rng.Below(domain)) - 5);
    case DataType::kDouble:
      if (rng.Chance(0.02)) return Value(std::nan(""));
      if (rng.Chance(0.02)) return Value(-0.0);
      return Value(static_cast<double>(rng.Below(domain)) * 0.5);
    default:
      return Value("v" + std::to_string(rng.Below(domain)));
  }
}

/// Probes: values of the column's domain (present or not), values outside
/// it, other types, NULL, NaN and both zeros.
std::vector<Value> Probes(util::Rng& rng, DataType type, uint64_t domain) {
  std::vector<Value> probes = {Value::Null(), Value(int64_t{-1000000}),
                               Value(0.0),    Value(-0.0),
                               Value(std::nan("")), Value("absent"),
                               Value(int64_t{0})};
  for (int i = 0; i < 200; ++i) {
    probes.push_back(RandomValue(rng, type, 2 * domain));
  }
  return probes;
}

void ExpectColumnMatchesScan(const Column& col,
                             const std::vector<Value>& probes,
                             const std::string& where) {
  // A standalone column has no tombstones: every row is live.
  testsupport::ExpectLiveCountsMatchScan(col, {}, where);
  for (const Value& v : probes) {
    EXPECT_EQ(col.FindCode(v), ScanCode(col, v))
        << where << " " << v.ToString();
  }
  // Every dictionary entry finds its own code; NaN, equal to nothing,
  // finds none.
  for (uint32_t c = 0; c < col.dict_size(); ++c) {
    const Value& v = col.DictValue(c);
    const bool nan = v.is_double() && std::isnan(v.as_double());
    EXPECT_EQ(col.FindCode(v), nan ? kNullCode : c) << where << " " << c;
  }
}

class ColumnTest : public ::testing::TestWithParam<int> {
 protected:
  uint64_t seed() const { return testsupport::DeriveSeed(GetParam()); }
};

TEST_P(ColumnTest, FindCodeMatchesLinearScanThroughGrowthCompactAndLoad) {
  util::Rng rng(seed());
  for (DataType type : {DataType::kInt64, DataType::kDouble,
                        DataType::kString}) {
    const std::string name = DataTypeName(type);
    // 200 to 1000 domain values: the index grows from 16 slots through
    // five to seven doublings.
    const uint64_t domain = 200 + rng.Below(800);
    const std::vector<Value> probes = Probes(rng, type, domain);
    Column col(type);
    const size_t appends = 2 * domain;
    for (size_t i = 0; i < appends; ++i) {
      col.Append(rng.Chance(0.1) ? Value::Null()
                                 : RandomValue(rng, type, domain));
      if (i % 97 == 0) ExpectColumnMatchesScan(col, probes, name + " append");
    }
    ExpectColumnMatchesScan(col, probes, name + " appended");

    std::vector<uint8_t> live(col.size());
    for (auto& b : live) b = rng.Chance(0.6) ? 1 : 0;
    const testsupport::ScannedColumn kept = testsupport::ScanColumn(col, live);
    col.Compact(live);
    ExpectColumnMatchesScan(col, probes, name + " compacted");
    EXPECT_EQ(col.live_null_count(), kept.nulls) << name;
    EXPECT_EQ(col.live_distinct_count(), kept.distinct) << name;
    EXPECT_EQ(col.live_width(), kept.width) << name;

    Column loaded = Column::FromEncoded(type, col.dict_values(), col.codes(),
                                        col.null_count());
    ExpectColumnMatchesScan(loaded, probes, name + " loaded");
    for (size_t i = 0; i < domain; ++i) {
      const Value v = RandomValue(rng, type, 2 * domain);
      loaded.Append(v);
      col.Append(v);
    }
    ExpectColumnMatchesScan(loaded, probes, name + " loaded+appended");
    // The loaded column keeps assigning the codes the original does.
    EXPECT_EQ(loaded.codes(), col.codes()) << name;
    EXPECT_EQ(loaded.live_counts(), col.live_counts()) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ColumnTest, ::testing::Range(0, 4));

}  // namespace
}  // namespace fdevolve::relation
