#include "fd/measures.h"

#include "query/group_ids.h"

namespace fdevolve::fd {

FdMeasures MeasuresFromCounts(size_t x, size_t xy, size_t y) {
  FdMeasures m;
  m.distinct_x = x;
  m.distinct_xy = xy;
  m.distinct_y = y;
  if (xy == 0) {
    // Empty instance: every FD is vacuously satisfied.
    m.confidence = 1.0;
    m.goodness = 0;
    m.exact = true;
    return m;
  }
  m.confidence = static_cast<double>(x) / static_cast<double>(xy);
  m.goodness = static_cast<int64_t>(x) - static_cast<int64_t>(y);
  m.exact = (x == xy);
  return m;
}

FdMeasures ComputeMeasures(const relation::Relation& rel, const Fd& fd) {
  query::RefineScratch scratch;
  const size_t x = query::GroupCountBy(rel, fd.lhs(), scratch);
  const size_t xy = query::GroupCountBy(rel, fd.AllAttrs(), scratch);
  return MeasuresFromCounts(x, xy, query::GroupCountBy(rel, fd.rhs(), scratch));
}

FdMeasures ComputeMeasures(query::DistinctEvaluator& eval, const Fd& fd) {
  size_t x = eval.Count(fd.lhs());
  size_t xy = eval.Count(fd.AllAttrs());
  size_t y = eval.Count(fd.rhs());
  return MeasuresFromCounts(x, xy, y);
}

bool Satisfies(const relation::Relation& rel, const Fd& fd) {
  query::RefineScratch scratch;
  return query::GroupCountBy(rel, fd.lhs(), scratch) ==
         query::GroupCountBy(rel, fd.AllAttrs(), scratch);
}

}  // namespace fdevolve::fd
