// Differential fuzzing of FindFdRepairs (Algorithm 1) against its parts.
//
// FindFdRepairs runs Extend on every declared FD and ranks the FDs by O_F
// (§4.1) from the |π_X|, |π_XY| and |π_Y| each run counted for its own
// FD. It must report exactly what the two-step form gives: `order` equal,
// field by field, to OrderFds (which counts through a DistinctEvaluator),
// and `results[i]` equal to Extend on `order[i].fd` with the same options.
// The suite checks that on random NULL-bearing relations with 2-5 random
// FDs, at widths 1, 2, 4, 8 and 16, in every SearchMode, with the planner
// on and off, with and without a max_evaluations cap, and with and without
// the conflict score; and that the order is itself sorted by descending
// rank with declaration order among ties. Reproducible via --seed=N /
// FDEVOLVE_SEED.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "fd/ordering.h"
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

constexpr int kWidths[] = {1, 2, 4, 8, 16};

void ExpectSameOrder(const std::vector<fd::OrderedFd>& expected,
                     const std::vector<fd::OrderedFd>& got) {
  ASSERT_EQ(got.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    const fd::OrderedFd& e = expected[i];
    const fd::OrderedFd& g = got[i];
    EXPECT_EQ(g.fd, e.fd) << "position " << i;
    EXPECT_EQ(g.measures.distinct_x, e.measures.distinct_x);
    EXPECT_EQ(g.measures.distinct_xy, e.measures.distinct_xy);
    EXPECT_EQ(g.measures.distinct_y, e.measures.distinct_y);
    // Exact doubles: both sides run MeasuresFromCounts and the O_F formula
    // on the same integers.
    EXPECT_EQ(g.measures.confidence, e.measures.confidence);
    EXPECT_EQ(g.measures.goodness, e.measures.goodness);
    EXPECT_EQ(g.measures.exact, e.measures.exact);
    EXPECT_EQ(g.conflict, e.conflict) << "position " << i;
    EXPECT_EQ(g.rank, e.rank) << "position " << i;
    EXPECT_EQ(g.original_index, e.original_index) << "position " << i;
  }
}

/// The order on its own terms: a permutation of the declared FDs, each
/// ranked by O_F = (ic + cf) / 2, sorted by descending rank with
/// declaration order among ties.
void ExpectRankedOrder(const std::vector<fd::Fd>& fds,
                       const std::vector<fd::OrderedFd>& order,
                       bool include_conflict) {
  ASSERT_EQ(order.size(), fds.size());
  std::vector<bool> seen(fds.size(), false);
  for (size_t i = 0; i < order.size(); ++i) {
    const fd::OrderedFd& o = order[i];
    ASSERT_LT(o.original_index, fds.size());
    EXPECT_FALSE(seen[o.original_index]) << "FD listed twice";
    seen[o.original_index] = true;
    EXPECT_EQ(o.fd, fds[o.original_index]);
    EXPECT_EQ(o.conflict,
              include_conflict ? fd::ConflictScore(o.fd, fds) : 0.0);
    EXPECT_EQ(o.rank, (o.measures.inconsistency() + o.conflict) / 2.0);
    if (i == 0) continue;
    const fd::OrderedFd& prev = order[i - 1];
    EXPECT_GE(prev.rank, o.rank) << "position " << i;
    if (prev.rank == o.rank) {
      EXPECT_LT(prev.original_index, o.original_index) << "position " << i;
    }
  }
}

class FindFdRepairsFuzz : public ::testing::TestWithParam<int> {
 protected:
  uint64_t seed() const { return testsupport::DeriveSeed(GetParam()); }
};

TEST_P(FindFdRepairsFuzz, MatchesOrderFdsThenExtend) {
  util::Rng rng(seed());
  for (int round = 0; round < 2; ++round) {
    const int n_attrs = 5 + static_cast<int>(rng.Below(4));
    const size_t n_tuples = 80 + rng.Below(300);
    const size_t domain = 2 + rng.Below(4);
    const Relation rel = RandomRelation(seed() + static_cast<uint64_t>(round),
                                        n_attrs, n_tuples, domain);
    std::vector<fd::Fd> fds;
    const size_t fd_count = 2 + rng.Below(4);
    for (size_t i = 0; i < fd_count; ++i) fds.push_back(RandomFd(rng, n_attrs));
    const int depth = 2 + round;

    for (bool include_conflict : {true, false}) {
      fd::OrderingOptions ordering;
      ordering.include_conflict = include_conflict;
      const std::vector<fd::OrderedFd> expected_order =
          fd::OrderFds(rel, fds, ordering);
      ExpectRankedOrder(fds, expected_order, include_conflict);
      for (auto mode : {fd::SearchMode::kFirstRepair,
                        fd::SearchMode::kAllRepairs, fd::SearchMode::kTopK}) {
        for (bool planner : {true, false}) {
          for (size_t cap : {size_t{0}, size_t{7}}) {
            fd::RepairOptions opts;
            opts.mode = mode;
            opts.top_k = 2;
            opts.max_added_attrs = depth;
            opts.use_planner = planner;
            opts.max_evaluations = cap;
            for (int width : kWidths) {
              SCOPED_TRACE(::testing::Message()
                           << "round=" << round << " conflict="
                           << include_conflict << " mode="
                           << static_cast<int>(mode) << " planner="
                           << planner << " cap=" << cap
                           << " width=" << width);
              opts.threads = width;
              const fd::FindRepairsOutcome outcome =
                  fd::FindFdRepairs(rel, fds, opts, ordering);
              ExpectSameOrder(expected_order, outcome.order);
              ASSERT_EQ(outcome.results.size(), expected_order.size());
              for (size_t i = 0; i < expected_order.size(); ++i) {
                ExpectSameResult(
                    fd::Extend(rel, expected_order[i].fd, opts),
                    outcome.results[i], width);
              }
            }
          }
        }
      }
    }
  }
}

TEST_P(FindFdRepairsFuzz, TombstonedRelationThrows) {
  util::Rng rng(seed() + 5);
  Relation rel = RandomRelation(seed() + 5, 6, 120, 3);
  std::vector<fd::Fd> fds = {RandomFd(rng, 6), RandomFd(rng, 6)};
  rel.DeleteRow(rng.Below(rel.tuple_count()));
  for (int width : kWidths) {
    fd::RepairOptions opts;
    opts.threads = width;
    EXPECT_THROW(fd::FindFdRepairs(rel, fds, opts), std::logic_error)
        << "width=" << width;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FindFdRepairsFuzz, ::testing::Range(0, 6));

}  // namespace
}  // namespace fdevolve
