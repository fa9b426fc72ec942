// Cross-tier identity fuzzing for the SIMD kernel dispatch layer.
//
// Every tier this host can run (AVX2 on top of the always-present
// baseline scalar) must reproduce the baseline kernels BIT-FOR-BIT:
// identical first-appearance group ids, identical group counts, identical
// measure doubles — not merely equivalent partitions. The suite hammers
// that contract on randomized instances covering NULL-bearing columns,
// tombstoned rows and post-compaction relations. Reproducible via
// --seed=N / FDEVOLVE_SEED.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fd/measures.h"
#include "query/group_ids.h"
#include "query/kernels.h"
#include "relation/relation.h"
#include "support/fuzz_seed.h"
#include "util/cpu_features.h"
#include "util/rng.h"

namespace fdevolve {
namespace {

using relation::AttrSet;
using relation::DataType;
using relation::Relation;
using relation::Schema;
using relation::Value;

/// Random relation mixing int columns with NULLs at a per-column rate.
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

AttrSet RandomSubset(util::Rng& rng, int n_attrs, double p) {
  AttrSet s;
  for (int a = 0; a < n_attrs; ++a) {
    if (rng.Chance(p)) s.Add(a);
  }
  return s;
}

/// Restores whatever tier was selected on entry — ForceTier is
/// process-global state, and the entry tier may itself be an override
/// (FDEVOLVE_CPU_FEATURES in the forced-baseline CI leg), so restoring
/// the *detected* tier would silently undo it for the rest of the binary.
class TierGuard {
 public:
  TierGuard() : entry_(query::kernels::SelectedTier()) {}
  ~TierGuard() { query::kernels::ForceTier(entry_); }

 private:
  util::CpuTier entry_;
};

class KernelTierFuzz : public ::testing::TestWithParam<int> {
 protected:
  uint64_t seed() const { return testsupport::DeriveSeed(GetParam()); }
};

TEST_P(KernelTierFuzz, AllTiersMatchBaselineBitForBit) {
  TierGuard guard;
  util::Rng rng(seed());
  const auto tiers = query::kernels::SupportedTiers();
  for (int round = 0; round < 5; ++round) {
    const int n_attrs = 2 + static_cast<int>(rng.Below(5));
    const size_t n_tuples = rng.Below(400);
    const size_t domain = 1 + rng.Below(10);
    const double null_rate = round % 2 == 0 ? 0.0 : 0.25;
    Relation rel = RandomNullableRelation(
        seed() + static_cast<uint64_t>(round) * 1000003ULL, n_attrs, n_tuples,
        domain, null_rate);
    // Tombstone a random slice; sometimes fold it away, so both the
    // live-masked and the compacted (re-encoded) shapes are covered.
    if (round >= 1 && n_tuples > 0) {
      for (size_t t = 0; t < n_tuples; ++t) {
        if (rng.Chance(0.15)) rel.DeleteRow(t);
      }
      if (round % 2 == 1) rel.Compact();
    }

    for (int trial = 0; trial < 4; ++trial) {
      const AttrSet attrs = RandomSubset(rng, n_attrs, 0.5);
      const int refine_attr = static_cast<int>(rng.Below(n_attrs));
      const int other_attr =
          (refine_attr + 1 + static_cast<int>(rng.Below(n_attrs - 1))) %
          n_attrs;
      // One level and two from a base: on tombstoned rounds the counts
      // are the masked single- and multi-level passes.
      const AttrSet one = AttrSet::Of({refine_attr});
      const AttrSet two = AttrSet::Of({refine_attr, other_attr});
      const fd::Fd fd(AttrSet::Of({0}), AttrSet::Of({1}));

      // Baseline truth.
      query::kernels::ForceTier(util::CpuTier::kBaseline);
      const auto ref_group = query::GroupBy(rel, attrs);
      const size_t ref_count = query::GroupCountBy(rel, attrs);
      const auto ref_refine = query::RefineBy(rel, ref_group, refine_attr);
      const auto ref_refine2 = query::RefineBy(rel, ref_group, two);
      const size_t ref_count1 = query::RefineCountBy(rel, ref_group, one);
      const size_t ref_count2 = query::RefineCountBy(rel, ref_group, two);
      const auto ref_measures = fd::ComputeMeasures(rel, fd);

      for (util::CpuTier tier : tiers) {
        query::kernels::ForceTier(tier);
        query::RefineScratch s;
        const std::string ctx = std::string(util::CpuTierName(tier)) +
                                " round=" + std::to_string(round) +
                                " trial=" + std::to_string(trial);
        const auto g = query::GroupBy(rel, attrs, s);
        EXPECT_EQ(g.ids, ref_group.ids) << ctx;
        EXPECT_EQ(g.group_count, ref_group.group_count) << ctx;
        EXPECT_EQ(query::GroupCountBy(rel, attrs, s), ref_count) << ctx;
        const auto r = query::RefineBy(rel, g, refine_attr, s);
        EXPECT_EQ(r.ids, ref_refine.ids) << ctx;
        EXPECT_EQ(r.group_count, ref_refine.group_count) << ctx;
        const auto r2 = query::RefineBy(rel, g, two, s);
        EXPECT_EQ(r2.ids, ref_refine2.ids) << ctx;
        EXPECT_EQ(r2.group_count, ref_refine2.group_count) << ctx;
        EXPECT_EQ(query::RefineCountBy(rel, g, one, s), ref_count1) << ctx;
        EXPECT_EQ(query::RefineCountBy(rel, g, two, s), ref_count2) << ctx;
        const auto m = fd::ComputeMeasures(rel, fd);
        EXPECT_EQ(m.confidence, ref_measures.confidence) << ctx;
        EXPECT_EQ(m.goodness, ref_measures.goodness) << ctx;
      }
    }
  }
}

// Hand-built out-of-range base ids must throw on every tier — the bounds
// check is part of the kernel contract, not just the scalar path. A
// 3-group claim keeps both refinements on the dense path. A 70000-group
// claim over 100 rows claims more groups than rows, which RefineBy and
// RefineCountBy reject before any pass sizes scratch by it. A bad id on a
// dead row only is never checked by a masked count-only pass, single- or
// multi-level, while a materializing pass, which covers every row, throws.
TEST_P(KernelTierFuzz, BadBaseIdsThrowOnEveryTier) {
  TierGuard guard;
  Relation rel = RandomNullableRelation(seed(), 3, 100, 5, 0.0);
  query::Grouping dense_bad;
  dense_bad.ids.assign(100, 7);
  dense_bad.group_count = 3;  // lies: ids reach 7
  query::Grouping overclaimed;
  overclaimed.ids.resize(100);
  for (uint32_t t = 0; t < 100; ++t) overclaimed.ids[t] = t;
  util::Rng rng(seed());
  overclaimed.ids[rng.Below(100)] = 70000;
  overclaimed.group_count = 70000;  // lies: one id is 70000
  // One dead row inside the AVX2 loop's 16-row batches, one in its
  // scalar tail (rows 96-99).
  Relation del = rel;
  const size_t dead_body = rng.Below(96);
  const size_t dead_tail = 96 + rng.Below(4);
  del.DeleteRow(dead_body);
  del.DeleteRow(dead_tail);
  query::Grouping dead_bad;
  dead_bad.ids.resize(100);
  for (uint32_t t = 0; t < 100; ++t) dead_bad.ids[t] = t % 3;
  dead_bad.group_count = 3;
  const query::Grouping dead_fixed = dead_bad;
  dead_bad.ids[dead_body] = 7;  // lies only on the dead rows
  dead_bad.ids[dead_tail] = 9;
  for (util::CpuTier tier : query::kernels::SupportedTiers()) {
    query::kernels::ForceTier(tier);
    const std::string dead_ctx = std::string(util::CpuTierName(tier)) +
                                 " dead rows " + std::to_string(dead_body) +
                                 "," + std::to_string(dead_tail);
    for (const AttrSet& attrs : {AttrSet::Of({1}), AttrSet::Of({1, 2})}) {
      size_t count = 0;
      EXPECT_NO_THROW(count = query::RefineCountBy(del, dead_bad, attrs))
          << dead_ctx;
      EXPECT_EQ(count, query::RefineCountBy(del, dead_fixed, attrs))
          << dead_ctx;
    }
    EXPECT_THROW(query::RefineBy(del, dead_bad, 1), std::invalid_argument)
        << dead_ctx;
    for (const query::Grouping* bad : {&dense_bad, &overclaimed}) {
      const std::string ctx = std::string(util::CpuTierName(tier)) +
                              " group_count=" +
                              std::to_string(bad->group_count);
      EXPECT_THROW(query::RefineBy(rel, *bad, 1), std::invalid_argument)
          << ctx;
      EXPECT_THROW(query::RefineCountBy(rel, *bad, AttrSet::Of({1, 2})),
                   std::invalid_argument)
          << ctx;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelTierFuzz, ::testing::Range(0, 6));

}  // namespace
}  // namespace fdevolve
