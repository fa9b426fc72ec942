// Differential fuzzing of Extend's last level.
//
// At its depth limit d, with exactness as the target, Extend refines only
// π̂_XU per expansion and decides each candidate with one short-circuiting
// pass (StrippedPartition::RefineCountIfDetermines). One level deeper,
// the same candidates sit above the limit and take the two-count path
// (|π_XUa| and |π_XUaY|). The frontier pops every node of depth <= d
// before any deeper one, so a search limited to d must return exactly the
// size-<= d prefix of the search limited to d + 1: the same repair sets,
// measures and order. This suite checks that for d in {1, 2}, every
// SearchMode, with the planner on and off, at widths 1, 2, 4 and 8.
// Instances plant a two-attribute determinant of Y so that the last level
// finds repairs, draw one- and two-attribute consequents, and give Y a
// NULL-bearing column, so both sources of Y ids run. Reproducible via
// --seed=N / FDEVOLVE_SEED.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fd/repair_search.h"
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

constexpr int kWidths[] = {1, 2, 4, 8};

struct Instance {
  Relation rel{"last_level", {}};
  fd::Fd fd;
};

/// `k` NULL-free attributes a0..a{k-1} over a small domain, then "y", a
/// function of two of them (re-rolled on a `noise` share of rows), then
/// "yn", a function of two others that is NULL where it would be 0. The
/// FD's antecedent is one attribute neither function reads; its consequent
/// is {y}, {yn}, {y, yn} or one other attribute.
Instance RandomInstance(util::Rng& rng, bool clean) {
  const int k = 6 + static_cast<int>(rng.Below(4));
  const size_t n = 150 + rng.Below(350);
  const size_t domain = 2 + rng.Below(3);
  const double noise = clean ? 0.0 : (rng.Chance(0.5) ? 0.0 : 0.01);
  // a0 is the antecedent; y reads a1 and a2, yn reads a3 and a4.
  std::vector<relation::Attribute> attrs;
  for (int i = 0; i < k; ++i) {
    attrs.push_back({"a" + std::to_string(i), DataType::kInt64});
  }
  attrs.push_back({"y", DataType::kInt64});
  attrs.push_back({"yn", DataType::kInt64});
  Instance inst;
  inst.rel = Relation("last_level", Schema(std::move(attrs)));
  std::vector<int64_t> a(static_cast<size_t>(k));
  for (size_t t = 0; t < n; ++t) {
    std::vector<Value> row;
    for (int i = 0; i < k; ++i) {
      a[static_cast<size_t>(i)] = static_cast<int64_t>(rng.Below(domain));
      row.emplace_back(a[static_cast<size_t>(i)]);
    }
    int64_t y = (a[1] * 7 + a[2] * 3 + a[0]) % 5;
    if (rng.Chance(noise)) y = static_cast<int64_t>(rng.Below(5));
    const int64_t yn = (a[3] * 5 + a[4] + a[0] * 2) % 4;
    row.emplace_back(y);
    row.push_back(yn == 0 ? Value::Null() : Value(yn));
    inst.rel.AppendRow(row);
  }
  AttrSet rhs;
  switch (clean ? 0 : rng.Below(4)) {
    case 0:
      rhs.Add(k);
      break;
    case 1:
      rhs.Add(k + 1);
      break;
    case 2:
      rhs.Add(k);
      rhs.Add(k + 1);
      break;
    default:
      rhs.Add(5 + static_cast<int>(rng.Below(static_cast<size_t>(k - 5))));
      break;
  }
  inst.fd = fd::Fd(AttrSet::Of({0}), rhs);
  return inst;
}

/// `limited` (depth limit d) must equal the size-<= d prefix of `deeper`
/// (depth limit d + 1).
void ExpectPrefix(const fd::RepairResult& limited,
                  const fd::RepairResult& deeper, int d,
                  const std::string& where) {
  EXPECT_EQ(limited.already_exact, deeper.already_exact) << where;
  std::vector<const fd::Repair*> prefix;
  for (const fd::Repair& r : deeper.repairs) {
    if (r.added.Count() <= d) prefix.push_back(&r);
  }
  ASSERT_EQ(limited.repairs.size(), prefix.size()) << where;
  for (size_t i = 0; i < prefix.size(); ++i) {
    const fd::Repair& got = limited.repairs[i];
    const fd::Repair& want = *prefix[i];
    EXPECT_EQ(got.added, want.added) << where << " repair " << i;
    EXPECT_EQ(got.measures.distinct_x, want.measures.distinct_x) << where;
    EXPECT_EQ(got.measures.distinct_xy, want.measures.distinct_xy) << where;
    EXPECT_EQ(got.measures.distinct_y, want.measures.distinct_y) << where;
    EXPECT_EQ(got.measures.confidence, want.measures.confidence) << where;
    EXPECT_EQ(got.measures.goodness, want.measures.goodness) << where;
    EXPECT_EQ(got.measures.exact, want.measures.exact) << where;
  }
}

class ExtendLastLevelFuzz : public ::testing::TestWithParam<int> {
 protected:
  uint64_t seed() const { return testsupport::DeriveSeed(GetParam()); }
};

TEST_P(ExtendLastLevelFuzz, DepthLimitedSearchIsThePrefixOfOneLevelDeeper) {
  util::Rng rng(seed());
  size_t last_level_repairs = 0;
  for (int round = 0; round < 4; ++round) {
    const Instance inst = RandomInstance(rng, /*clean=*/round == 0);
    for (int d : {1, 2}) {
      for (auto mode : {fd::SearchMode::kFirstRepair,
                        fd::SearchMode::kAllRepairs, fd::SearchMode::kTopK}) {
        for (bool planner : {true, false}) {
          for (int width : kWidths) {
            fd::RepairOptions opts;
            opts.mode = mode;
            opts.use_planner = planner;
            opts.threads = width;
            opts.max_added_attrs = d;
            const fd::RepairResult limited = fd::Extend(inst.rel, inst.fd, opts);
            opts.max_added_attrs = d + 1;
            const fd::RepairResult deeper = fd::Extend(inst.rel, inst.fd, opts);
            ExpectPrefix(limited, deeper, d,
                         "round=" + std::to_string(round) +
                             " d=" + std::to_string(d) +
                             " mode=" + std::to_string(static_cast<int>(mode)) +
                             " planner=" + std::to_string(planner) +
                             " width=" + std::to_string(width));
            for (const fd::Repair& r : limited.repairs) {
              last_level_repairs += r.added.Count() == d ? 1 : 0;
            }
          }
        }
      }
    }
  }
  // Round 0 plants {a1, a2} for {y} without noise, so the depth-2 last
  // level accepts at least that repair.
  EXPECT_GT(last_level_repairs, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExtendLastLevelFuzz, ::testing::Range(0, 6));

}  // namespace
}  // namespace fdevolve
