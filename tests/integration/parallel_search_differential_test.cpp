// Sequential-vs-parallel differential fuzzing of the repair-search stack:
// Extend (CB method) and RankEb (ε_EB baseline), the two places where
// threads fan out over independent candidates.
//
// The `threads` knob documents that ranked output is bit-identical for
// every thread count — repairs, their measures (including the floating-
// point confidence), and all stats except wall time. This suite runs the
// same randomized instances through threads=1 and the parallel widths and
// demands exact equality. Reproducible via --seed=N / FDEVOLVE_SEED.
#include <gtest/gtest.h>

#include <vector>

#include "clustering/eb_repair.h"
#include "fd/measures.h"
#include "fd/repair_search.h"
#include "relation/relation.h"
#include "support/fuzz_seed.h"
#include "support/repair_fuzz.h"
#include "util/rng.h"

namespace fdevolve {
namespace {

using relation::Relation;
using testsupport::ExpectSameResult;
using testsupport::RandomFd;
using testsupport::RandomRelation;

// Extend first fans out its roots (π̂_XY refined beside the seed
// candidates' |π_Xa| counts), then evaluates its node expansions in waves:
// max(1, width / 2) two-base expansions above the last level, 2 × width
// one-base expansions at it. Widths 2 and 3 hold one expansion per wave
// above the last level (four and six at it), 4 two (eight), 8 four
// (sixteen) and 16 eight (thirty-two). Every fan-out hands its items out
// one at a time, so which executor runs an item varies from run to run.
constexpr int kThreadCounts[] = {2, 3, 4, 8, 16};

/// Every thread count shares one counting path, so the reference result
/// is also checked against an independent recount of the original FD and
/// of each repair.
void ExpectRecountedMeasures(const Relation& rel, const fd::Fd& f,
                             const fd::RepairResult& result) {
  auto expect_equal = [](const fd::FdMeasures& got,
                         const fd::FdMeasures& want) {
    EXPECT_EQ(got.distinct_x, want.distinct_x);
    EXPECT_EQ(got.distinct_xy, want.distinct_xy);
    EXPECT_EQ(got.distinct_y, want.distinct_y);
    EXPECT_EQ(got.confidence, want.confidence);
    EXPECT_EQ(got.goodness, want.goodness);
  };
  expect_equal(result.original_measures, fd::ComputeMeasures(rel, f));
  for (const fd::Repair& r : result.repairs) {
    expect_equal(r.measures, fd::ComputeMeasures(rel, r.repaired));
  }
}

class ParallelSearchFuzz : public ::testing::TestWithParam<int> {
 protected:
  uint64_t seed() const { return testsupport::DeriveSeed(GetParam()); }
};

TEST_P(ParallelSearchFuzz, ExtendBitIdenticalAcrossThreadCounts) {
  util::Rng rng(seed());
  for (int round = 0; round < 3; ++round) {
    // Up to 13 attributes: levels wide enough that one often ends on a
    // part-filled wave while the frontier already holds deeper nodes.
    const int n_attrs = 6 + static_cast<int>(rng.Below(8));
    const size_t n_tuples = 100 + rng.Below(500);
    const size_t domain = 2 + rng.Below(6);
    Relation rel = RandomRelation(seed() + static_cast<uint64_t>(round),
                                  n_attrs, n_tuples, domain);
    fd::Fd f = RandomFd(rng, n_attrs);
    // At depth 3 waves form on two levels, and kFirstRepair/kTopK stop
    // mid-search.
    for (int depth : {2, 3}) {
      for (auto mode : {fd::SearchMode::kFirstRepair,
                        fd::SearchMode::kAllRepairs, fd::SearchMode::kTopK}) {
        fd::RepairOptions opts;
        opts.mode = mode;
        opts.max_added_attrs = depth;
        opts.threads = 1;
        fd::RepairResult expected = fd::Extend(rel, f, opts);
        ExpectRecountedMeasures(rel, f, expected);
        for (int k : kThreadCounts) {
          opts.threads = k;
          ExpectSameResult(expected, fd::Extend(rel, f, opts), k);
        }
      }
    }
  }
}

TEST_P(ParallelSearchFuzz, ExtendBudgetSemanticsIdenticalUnderParallelism) {
  // A budget decides mid-expansion where the search stops; the wave path
  // must stop on exactly the same candidate.
  util::Rng rng(seed() + 7);
  Relation rel = RandomRelation(seed() + 7, 8, 400, 3);
  fd::Fd f = RandomFd(rng, 8);
  fd::RepairOptions base;
  base.mode = fd::SearchMode::kAllRepairs;
  base.max_added_attrs = 3;
  base.threads = 1;
  for (size_t budget : {size_t{1}, size_t{5}, size_t{13}, size_t{40}}) {
    fd::RepairOptions opts = base;
    opts.max_evaluations = budget;
    fd::RepairResult expected = fd::Extend(rel, f, opts);
    for (int k : kThreadCounts) {
      opts.threads = k;
      ExpectSameResult(expected, fd::Extend(rel, f, opts), k);
    }
  }
  // The modeled-cost budget also reorders every expansion by the planner's
  // bounds and costs.
  const double full_cost = fd::Extend(rel, f, base).stats.planned_cost_ms;
  if (full_cost <= 0.0) return;  // already exact or everything pruned
  for (double fraction : {0.1, 0.4, 0.8}) {
    fd::RepairOptions opts = base;
    opts.budget_cost = full_cost * fraction;
    fd::RepairResult expected = fd::Extend(rel, f, opts);
    for (int k : kThreadCounts) {
      opts.threads = k;
      ExpectSameResult(expected, fd::Extend(rel, f, opts), k);
    }
  }
}

TEST_P(ParallelSearchFuzz, ExtendGoodnessAndAfdPathsIdentical) {
  util::Rng rng(seed() + 13);
  Relation rel = RandomRelation(seed() + 13, 7, 500, 4);
  fd::Fd f = RandomFd(rng, 7);
  for (double target : {1.0, 0.9}) {
    for (int64_t threshold : {int64_t{-1}, int64_t{3}}) {
      fd::RepairOptions opts;
      opts.mode = fd::SearchMode::kFirstRepair;
      opts.max_added_attrs = 2;
      opts.target_confidence = target;
      opts.goodness_threshold = threshold;
      opts.threads = 1;
      fd::RepairResult expected = fd::Extend(rel, f, opts);
      ExpectRecountedMeasures(rel, f, expected);
      for (int k : kThreadCounts) {
        opts.threads = k;
        ExpectSameResult(expected, fd::Extend(rel, f, opts), k);
      }
    }
  }
}

TEST_P(ParallelSearchFuzz, RankEbBitIdenticalAcrossThreadCounts) {
  util::Rng rng(seed() + 23);
  Relation rel = RandomRelation(seed() + 23, 8, 600, 5);
  fd::Fd f = RandomFd(rng, 8);
  for (auto variant :
       {clustering::EbVariant::kOriginal, clustering::EbVariant::kVi}) {
    auto expected = clustering::RankEb(rel, f, fd::PoolOptions{}, variant, 1);
    for (int k : kThreadCounts) {
      auto got = clustering::RankEb(rel, f, fd::PoolOptions{}, variant, k);
      ASSERT_EQ(got.size(), expected.size()) << "threads=" << k;
      for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(got[i].attr, expected[i].attr) << "threads=" << k;
        // Entropies bit-identical: same per-candidate arithmetic order.
        EXPECT_EQ(got[i].h_xy_given_xa, expected[i].h_xy_given_xa);
        EXPECT_EQ(got[i].h_a_given_xy, expected[i].h_a_given_xy);
        EXPECT_EQ(got[i].vi, expected[i].vi);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelSearchFuzz, ::testing::Range(0, 6));

}  // namespace
}  // namespace fdevolve
