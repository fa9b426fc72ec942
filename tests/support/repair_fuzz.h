// Random instances and the result comparison shared by the repair-search
// differential suites (ParallelSearchFuzz, FindFdRepairsFuzz).
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "fd/repair_search.h"
#include "relation/relation.h"
#include "util/rng.h"

namespace fdevolve::testsupport {

/// Random relation of `n_attrs` NULL-free attributes, then one attribute
/// that is NULL on about a quarter of the rows. The candidate pool
/// excludes NULL-able attributes by default, so the pool stays wide and
/// the search deep; only an FD's consequent uses the last attribute.
inline relation::Relation RandomRelation(uint64_t seed, int n_attrs,
                                         size_t n_tuples, size_t domain) {
  std::vector<relation::Attribute> attrs;
  for (int i = 0; i <= n_attrs; ++i) {
    attrs.push_back({"a" + std::to_string(i), relation::DataType::kInt64});
  }
  relation::Relation rel("fuzz", relation::Schema(std::move(attrs)));
  util::Rng rng(seed);
  for (size_t t = 0; t < n_tuples; ++t) {
    std::vector<relation::Value> row;
    row.reserve(static_cast<size_t>(n_attrs) + 1);
    for (int i = 0; i < n_attrs; ++i) {
      row.emplace_back(static_cast<int64_t>(rng.Below(domain)));
    }
    if (rng.Below(4) == 0) {
      row.push_back(relation::Value::Null());
    } else {
      row.emplace_back(static_cast<int64_t>(rng.Below(domain)));
    }
    rel.AppendRow(row);
  }
  return rel;
}

/// Random FD over a RandomRelation of `n_attrs`: a 1-2 attribute
/// antecedent of NULL-free attributes and a consequent of one attribute,
/// or of two about a third of the time, that may be the NULL-bearing one.
/// A one-attribute consequent reaches Extend's last level as a column's
/// codes, a two-attribute one as GroupBy ids. Never trivial.
inline fd::Fd RandomFd(util::Rng& rng, int n_attrs) {
  relation::AttrSet rhs;
  const int rhs_size = rng.Below(3) == 0 ? 2 : 1;
  while (rhs.Count() < rhs_size) {
    rhs.Add(static_cast<int>(rng.Below(static_cast<size_t>(n_attrs) + 1)));
  }
  relation::AttrSet lhs;
  const int lhs_size = 1 + static_cast<int>(rng.Below(2));
  while (lhs.Count() < lhs_size) {
    const int a = static_cast<int>(rng.Below(static_cast<size_t>(n_attrs)));
    if (!rhs.Contains(a)) lhs.Add(a);
  }
  return fd::Fd(lhs, rhs);
}

/// Expects `got` to equal `expected` bit for bit: the original FD and its
/// measures, every repair and its measures, and every SearchStats field
/// but `elapsed_ms`. `threads` labels the failure.
inline void ExpectSameResult(const fd::RepairResult& expected,
                             const fd::RepairResult& got, int threads) {
  EXPECT_EQ(got.original, expected.original) << "threads=" << threads;
  EXPECT_EQ(got.original_measures.distinct_x,
            expected.original_measures.distinct_x);
  EXPECT_EQ(got.original_measures.distinct_xy,
            expected.original_measures.distinct_xy);
  EXPECT_EQ(got.original_measures.distinct_y,
            expected.original_measures.distinct_y);
  EXPECT_EQ(got.original_measures.confidence,
            expected.original_measures.confidence);
  EXPECT_EQ(got.original_measures.goodness,
            expected.original_measures.goodness);
  EXPECT_EQ(got.already_exact, expected.already_exact) << "threads=" << threads;
  ASSERT_EQ(got.repairs.size(), expected.repairs.size())
      << "threads=" << threads;
  for (size_t i = 0; i < expected.repairs.size(); ++i) {
    const fd::Repair& e = expected.repairs[i];
    const fd::Repair& g = got.repairs[i];
    EXPECT_EQ(g.added, e.added) << "threads=" << threads << " repair " << i;
    EXPECT_EQ(g.measures.distinct_x, e.measures.distinct_x);
    EXPECT_EQ(g.measures.distinct_xy, e.measures.distinct_xy);
    EXPECT_EQ(g.measures.distinct_y, e.measures.distinct_y);
    // Bit-identical double, not approximate: both paths share the same
    // MeasuresFromCounts arithmetic on the same integers.
    EXPECT_EQ(g.measures.confidence, e.measures.confidence);
    EXPECT_EQ(g.measures.goodness, e.measures.goodness);
    EXPECT_EQ(g.within_goodness_threshold, e.within_goodness_threshold);
  }
  EXPECT_EQ(got.stats.nodes_expanded, expected.stats.nodes_expanded)
      << "threads=" << threads;
  EXPECT_EQ(got.stats.candidates_evaluated,
            expected.stats.candidates_evaluated)
      << "threads=" << threads;
  EXPECT_EQ(got.stats.frontier_peak, expected.stats.frontier_peak)
      << "threads=" << threads;
  EXPECT_EQ(got.stats.pruned_supersets, expected.stats.pruned_supersets)
      << "threads=" << threads;
  EXPECT_EQ(got.stats.pruned_by_bound, expected.stats.pruned_by_bound)
      << "threads=" << threads;
  EXPECT_EQ(got.stats.stop_reason, expected.stats.stop_reason)
      << "threads=" << threads;
  EXPECT_EQ(got.stats.planned_cost_ms, expected.stats.planned_cost_ms)
      << "threads=" << threads;
}

}  // namespace fdevolve::testsupport
