// Distinct-count and FD-measure estimation from a uniform row sample,
// with computed error intervals.
//
// The paper's measures are ratios of exact distinct counts; under a
// reservoir sample we only see m of the N live rows, and the estimation
// problem is the classic "distinct values from a random sample" one —
// known to be hard in the near-unique-key regime, where a plug-in ratio
// d_x/d_xy is catastrophically biased (a key column looks like a handful
// of repeated values at any sampling rate). The estimator here therefore
// leans on what a sample makes *certain* and bounds the rest:
//
//   * A sampled distinct count d is a certain LOWER bound on the
//     population count D (every sampled key exists).
//   * The Good–Turing singleton count f1 (keys seen exactly once) drives
//     the point estimate D^ = d + (N − m) · f1/m: the expected number of
//     unseen keys revealed per additional row is the unseen-mass estimate
//     f1/m. The UPPER bound widens the per-row discovery rate by a
//     z·sqrt(f1+1)/m slack (normal tail on the singleton count, +1 so a
//     zero-singleton sample keeps nonzero slack) and caps it at 1:
//     D_hi = d + (N − m) · min(1, (f1 + z·sqrt(f1+1)) / m),  z = 2.576.
//   * A sampled violation is certain: e = d_xy − d_x > 0 exhibits two
//     rows agreeing on X and differing on Y, which is a witness pair in
//     the full relation too. And the population excess E = D_xy − D_x can
//     never be smaller than the sampled excess e (each sampled XY-split
//     of an X-group exists in the population). Confidence bounds are
//     assembled from these structural facts plus the GT bounds:
//
//       c_lo = d_x / D^hi_xy            (c = D_x/D_xy >= d_x/D_xy when
//                                        D_x >= d_x, certain)
//       c_hi = 1                         when e == 0 (no sampled witness)
//       c_hi = D^hi_x / (D^hi_x + e)     when e > 0: c = D_x/(D_x + E)
//                                        <= D_x/(D_x + e), increasing in
//                                        D_x, so the GT cap bounds it
//
//     so a coverage failure requires a GT upper bound to miss — the one
//     controllable failure mode, which the statistical suite measures.
//   * Goodness g = D_x − D_y is bracketed by the same pieces:
//     [d_x − D^hi_y, D^hi_x − d_y] (lower bounds certain, uppers GT).
//
// Full-coverage collapse: when m == N the sample IS the live relation;
// every estimate routes through the exact integer counts and
// MeasuresFromCounts, intervals collapse to points, and approx == false.
// This is the hinge of the sample_rate=1.0 ≡ exact bit-identity gate.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "fd/fd.h"
#include "fd/measures.h"
#include "query/group_ids.h"
#include "relation/relation.h"

namespace fdevolve::fd {

/// One estimated distinct count with its interval. `lo` is certain
/// (sampled keys exist); `est`/`hi` are Good–Turing (see file comment).
struct CountEstimate {
  double est = 0.0;
  size_t lo = 0;
  double hi = 0.0;
};

/// Raw per-projection statistics of a sample: distinct keys and
/// singleton keys among the m sampled rows.
struct SampleProjectionStats {
  size_t distinct = 0;
  size_t singletons = 0;  ///< keys appearing exactly once (GT's f1)
};

/// FD measures estimated from a sample, plus their intervals. When
/// `approx` is false the sample covered every live row: `measures` is the
/// exact MeasuresFromCounts result and the interval fields keep their
/// defaults (they carry no information — the estimate is the truth).
struct SampledMeasures {
  FdMeasures measures;
  bool approx = false;
  double confidence_lo = 1.0;
  double confidence_hi = 1.0;
  double goodness_lo = 0.0;
  double goodness_hi = 0.0;
  /// Live sampled rows / live relation rows the estimate was made from.
  size_t sample_rows = 0;
  size_t live_rows = 0;
  /// Certain violation flag: a witness pair (same X, different XY) was
  /// sampled. Implies the FD is violated on the full relation; its
  /// absence implies nothing (the defining asymmetry of sampled drift).
  bool witnessed_violation = false;
};

/// Computes distinct/singleton counts of the sampled rows' projection
/// onto `attrs` (dictionary codes compared positionally — same
/// value <=> same code, including NULLs via kNullCode). Groups the rows
/// with query::GroupRows over `scratch`, then counts group sizes:
/// O(|rows| * |attrs|).
SampleProjectionStats ProjectionStats(const relation::Relation& rel,
                                      const std::vector<uint32_t>& rows,
                                      const relation::AttrSet& attrs,
                                      query::RefineScratch& scratch);

/// Good–Turing distinct-count estimate from sampled stats: `m` sampled
/// rows of `n` live rows yielded `stats`. Requires m <= n. When m == n
/// the estimate collapses to the exact count.
CountEstimate EstimateDistinct(const SampleProjectionStats& stats, size_t m,
                               size_t n);

/// Estimates one FD's measures from the sampled rows (physical row ids,
/// all live) of a relation with `live_rows` live rows, grouping them
/// through `scratch` (see ProjectionStats). When rows.size() == live_rows
/// the result is exact (see file comment).
SampledMeasures EstimateMeasures(const relation::Relation& rel,
                                 const std::vector<uint32_t>& rows,
                                 size_t live_rows, const Fd& fd,
                                 query::RefineScratch& scratch);

}  // namespace fdevolve::fd
