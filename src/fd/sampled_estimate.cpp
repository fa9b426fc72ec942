#include "fd/sampled_estimate.h"

#include <algorithm>
#include <cmath>

namespace fdevolve::fd {
namespace {

/// Normal-tail slack on the Good–Turing discovery rate (~99.5th
/// percentile one-sided). The statistical suite measures the realized
/// coverage this buys across the adversarial churn scenarios.
constexpr double kUpperZ = 2.576;

double ClampTo(double v, double lo, double hi) {
  return std::min(std::max(v, lo), hi);
}

}  // namespace

SampleProjectionStats ProjectionStats(const relation::Relation& rel,
                                      const std::vector<uint32_t>& rows,
                                      const relation::AttrSet& attrs,
                                      query::RefineScratch& scratch) {
  const query::Grouping g = query::GroupRows(rel, rows, attrs, scratch);
  std::vector<uint32_t> sizes(g.group_count, 0);
  for (uint32_t id : g.ids) ++sizes[id];
  SampleProjectionStats stats;
  stats.distinct = g.group_count;
  for (uint32_t c : sizes) {
    if (c == 1) ++stats.singletons;
  }
  return stats;
}

CountEstimate EstimateDistinct(const SampleProjectionStats& stats, size_t m,
                               size_t n) {
  CountEstimate out;
  out.lo = stats.distinct;
  const double d = static_cast<double>(stats.distinct);
  if (m >= n) {
    // Full coverage: the sample is the population.
    out.est = d;
    out.hi = d;
    return out;
  }
  const double unseen = static_cast<double>(n - m);
  if (m == 0) {
    // No information: anything from 0 to n distinct keys is possible.
    out.est = 0.0;
    out.hi = static_cast<double>(n);
    return out;
  }
  const double f1 = static_cast<double>(stats.singletons);
  const double md = static_cast<double>(m);
  // Every unseen row reveals at most one new key, so d + unseen caps
  // both the estimate and the upper bound.
  const double cap = d + unseen;
  out.est = std::min(d + unseen * (f1 / md), cap);
  const double hi_rate = std::min(1.0, (f1 + kUpperZ * std::sqrt(f1 + 1.0)) / md);
  out.hi = std::min(d + unseen * hi_rate, cap);
  return out;
}

SampledMeasures EstimateMeasures(const relation::Relation& rel,
                                 const std::vector<uint32_t>& rows,
                                 size_t live_rows, const Fd& fd,
                                 query::RefineScratch& scratch) {
  SampledMeasures out;
  out.sample_rows = rows.size();
  out.live_rows = live_rows;
  const size_t m = rows.size();
  const size_t n = live_rows;

  const SampleProjectionStats sx =
      ProjectionStats(rel, rows, fd.lhs(), scratch);
  const SampleProjectionStats sxy =
      ProjectionStats(rel, rows, fd.AllAttrs(), scratch);
  const SampleProjectionStats sy =
      ProjectionStats(rel, rows, fd.rhs(), scratch);

  if (m >= n) {
    // Full coverage: route through the exact arithmetic so measures,
    // drift decisions, and serialized bytes are bit-identical to the
    // exact monitor's (the sample_rate=1.0 differential gate).
    out.measures = MeasuresFromCounts(sx.distinct, sxy.distinct, sy.distinct);
    out.approx = false;
    out.witnessed_violation = !out.measures.exact;
    return out;
  }

  out.approx = true;
  if (m == 0) {
    // Empty sample over a non-empty relation: vacuous point estimates
    // with maximally honest intervals.
    out.measures = MeasuresFromCounts(0, 0, 0);
    out.confidence_lo = 0.0;
    out.confidence_hi = 1.0;
    out.goodness_lo = -static_cast<double>(n);
    out.goodness_hi = static_cast<double>(n);
    return out;
  }

  const CountEstimate ex = EstimateDistinct(sx, m, n);
  const CountEstimate exy = EstimateDistinct(sxy, m, n);
  const CountEstimate ey = EstimateDistinct(sy, m, n);

  // Sampled excess: XY-keys beyond X-keys among the sampled rows. e > 0
  // exhibits a witness pair, and the population excess E >= e (each
  // sampled XY-split of an X-group exists in the population).
  const size_t e = sxy.distinct - sx.distinct;
  out.witnessed_violation = e > 0;

  // Structural coherence: D_xy = D_x + E >= D_x + e, so lift the
  // independently estimated XY count to at least the X estimate plus the
  // certain excess before forming the ratio.
  const double est_x = ex.est;
  const double est_xy = std::max(exy.est, est_x + static_cast<double>(e));
  const double est_y = ey.est;

  double c_lo = exy.hi > 0.0 ? static_cast<double>(sx.distinct) / exy.hi : 1.0;
  double c_hi =
      e > 0 ? ex.hi / (ex.hi + static_cast<double>(e)) : 1.0;
  c_lo = ClampTo(c_lo, 0.0, 1.0);
  c_hi = ClampTo(c_hi, c_lo, 1.0);
  const double c_est =
      est_xy > 0.0 ? ClampTo(est_x / est_xy, c_lo, c_hi) : 1.0;

  const double g_lo = static_cast<double>(sx.distinct) - ey.hi;
  const double g_hi = ex.hi - static_cast<double>(sy.distinct);
  const double g_est = ClampTo(est_x - est_y, g_lo, g_hi);

  out.measures.distinct_x = static_cast<size_t>(std::llround(est_x));
  out.measures.distinct_xy = static_cast<size_t>(std::llround(est_xy));
  out.measures.distinct_y = static_cast<size_t>(std::llround(est_y));
  out.measures.confidence = c_est;
  out.measures.goodness = std::llround(g_est);
  // Sampled drift semantics: "exact" here means "no sampled witness" —
  // the absence of certain evidence, not certainty of absence.
  out.measures.exact = !out.witnessed_violation;
  out.confidence_lo = c_lo;
  out.confidence_hi = c_hi;
  out.goodness_lo = g_lo;
  out.goodness_hi = g_hi;
  return out;
}

}  // namespace fdevolve::fd
