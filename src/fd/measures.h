// Confidence and goodness — the paper's Definition 3 — plus derived scores.
#pragma once

#include <cstdint>

#include "fd/fd.h"
#include "query/distinct.h"
#include "relation/relation.h"

namespace fdevolve::fd {

/// All the counting-based measures of one FD on one instance.
struct FdMeasures {
  size_t distinct_x = 0;   ///< |π_X(r)|
  size_t distinct_xy = 0;  ///< |π_XY(r)|
  size_t distinct_y = 0;   ///< |π_Y(r)|

  /// c(F,r) = |π_X| / |π_XY|; 1 for the empty instance (vacuous).
  double confidence = 1.0;

  /// g(F,r) = |π_X| − |π_Y| (can be negative).
  int64_t goodness = 0;

  /// Exact iff confidence == 1 (Definition 4); computed on integers,
  /// so no floating-point tolerance is involved.
  bool exact = true;

  /// ic = 1 − c (§4.1 "degree of inconsistency").
  double inconsistency() const { return 1.0 - confidence; }

  /// |g| — used by the ε_CB measure (§5).
  uint64_t abs_goodness() const {
    return goodness < 0 ? static_cast<uint64_t>(-goodness)
                        : static_cast<uint64_t>(goodness);
  }

  /// ε_CB = ic + |g| (§5). Zero iff the FD induces a bijective function
  /// between the antecedent and consequent clusterings.
  double epsilon_cb() const {
    return inconsistency() + static_cast<double>(abs_goodness());
  }
};

/// Builds the full measure set from the three raw distinct counts.
/// Single source of the confidence/goodness arithmetic: every evaluation
/// path (memoised, fresh, and the repair search's parallel candidate
/// waves) goes through here, so their floating-point results are
/// bit-identical by construction.
FdMeasures MeasuresFromCounts(size_t distinct_x, size_t distinct_xy,
                              size_t distinct_y);

/// Measures one FD once, over the live rows: three count-only
/// query::GroupCountBy passes (|π_X|, |π_XY|, |π_Y|) sharing one scratch,
/// with no grouping kept. PlanRepair, OrderFds and Satisfies measure
/// through it.
FdMeasures ComputeMeasures(const relation::Relation& rel, const Fd& fd);

/// Computes the measures through a shared memoising evaluator, for callers
/// that count many overlapping sets (ExtendByOne, discovery, the exact
/// schema monitor).
FdMeasures ComputeMeasures(query::DistinctEvaluator& eval, const Fd& fd);

/// Definition 2 check (|π_X| == |π_XY|, two count-only passes).
bool Satisfies(const relation::Relation& rel, const Fd& fd);

}  // namespace fdevolve::fd
