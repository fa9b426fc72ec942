// Confidence and goodness computed literally through SQL — the path the
// paper's Java+MySQL prototype takes (§4.4's Q1/Q2). Exists so the bench
// suite can compare it against the in-core evaluator and so the generated
// query text can be handed to a real DBMS.
#pragma once

#include <string>
#include <vector>

#include "fd/measures.h"
#include "sql/database.h"

namespace fdevolve::sql {

/// The generated statements for one FD, in the paper's Q1/Q2 form.
struct MeasureQueries {
  std::string count_x;    ///< SELECT COUNT(DISTINCT X...) FROM t
  std::string count_xy;   ///< SELECT COUNT(DISTINCT X...,Y...) FROM t
  std::string count_y;    ///< SELECT COUNT(DISTINCT Y...) FROM t
};

/// Renders the three COUNT DISTINCT statements for `fd` on `table`.
MeasureQueries BuildMeasureQueries(const relation::Schema& schema,
                                   const fd::Fd& fd, const std::string& table);

/// Computes FdMeasures by parsing and executing the generated SQL against
/// the database — numerically identical to fd::ComputeMeasures (asserted
/// in tests): the three counts come through the SQL engine, independently
/// of the evaluator, and fd::MeasuresFromCounts turns them into measures.
fd::FdMeasures ComputeMeasuresViaSql(const Database& db,
                                     const std::string& table,
                                     const fd::Fd& fd);

}  // namespace fdevolve::sql
