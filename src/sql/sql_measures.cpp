#include "sql/sql_measures.h"

#include "sql/engine.h"

namespace fdevolve::sql {
namespace {

std::string CountDistinct(const relation::Schema& schema,
                          const relation::AttrSet& attrs,
                          const std::string& table) {
  if (attrs.Empty()) {
    // |π_{}| has no COUNT DISTINCT rendering; the paper's FDs always have
    // non-empty antecedents in the SQL path.
    throw std::invalid_argument(
        "BuildMeasureQueries: empty attribute set has no SQL form");
  }
  std::string cols;
  for (int a : attrs.ToVector()) {
    if (!cols.empty()) cols += ", ";
    cols += schema.attr(a).name;
  }
  return "SELECT COUNT(DISTINCT " + cols + ") FROM " + table;
}

}  // namespace

MeasureQueries BuildMeasureQueries(const relation::Schema& schema,
                                   const fd::Fd& fd,
                                   const std::string& table) {
  MeasureQueries q;
  q.count_x = CountDistinct(schema, fd.lhs(), table);
  q.count_xy = CountDistinct(schema, fd.AllAttrs(), table);
  q.count_y = CountDistinct(schema, fd.rhs(), table);
  return q;
}

fd::FdMeasures ComputeMeasuresViaSql(const Database& db,
                                     const std::string& table,
                                     const fd::Fd& fd) {
  const auto& schema = db.Get(table).schema();
  MeasureQueries q = BuildMeasureQueries(schema, fd, table);
  const uint64_t x = ExecuteSql(q.count_x, db);
  const uint64_t xy = ExecuteSql(q.count_xy, db);
  const uint64_t y = ExecuteSql(q.count_y, db);
  return fd::MeasuresFromCounts(x, xy, y);
}

}  // namespace fdevolve::sql
