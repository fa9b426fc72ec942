// Row-at-a-time reference for the SQL engine's WHERE and COUNT semantics.
//
// Each condition resolves its literal by a linear dictionary scan and tests
// one row per call; COUNT(DISTINCT ...) collects the code tuples of the
// surviving rows in a std::set. The engine answers the same statements
// from byte masks over the column codes and the query kernels; the fuzz
// suites compare the two. Header-only, so the support library stays free
// of module dependencies.
#pragma once

#include <cstdint>
#include <set>
#include <stdexcept>
#include <vector>

#include "relation/relation.h"
#include "sql/ast.h"

namespace fdevolve::testsupport {

/// Row predicate for one condition, evaluated on dictionary codes
/// (equality against a literal resolves to a single code).
class OracleCondition {
 public:
  OracleCondition(const relation::Relation& rel, const sql::Condition& cond)
      : op_(cond.op) {
    col_ = rel.schema().IndexOf(cond.column);
    if (col_ < 0) {
      throw std::invalid_argument("unknown column '" + cond.column + "' in " +
                                  rel.name());
    }
    if (op_ == sql::Condition::Op::kEq || op_ == sql::Condition::Op::kNeq) {
      if (cond.literal.is_null()) {
        // SQL three-valued logic: = NULL / <> NULL match nothing.
        matches_nothing_ = true;
        return;
      }
      // Integer literals meet double columns as doubles. An absent
      // literal means "= lit" matches nothing and "<> lit" matches every
      // non-NULL row.
      const auto& col = rel.column(col_);
      relation::Value lit = cond.literal;
      if (lit.is_int() && col.type() == relation::DataType::kDouble) {
        lit = relation::Value(static_cast<double>(lit.as_int()));
      }
      for (uint32_t c = 0; c < col.dict_size(); ++c) {
        if (col.DictValue(c) == lit) {
          literal_code_ = c;
          literal_present_ = true;
          break;
        }
      }
    }
  }

  bool Pass(const relation::Relation& rel, size_t row) const {
    if (matches_nothing_) return false;
    uint32_t code = rel.column(col_).code(row);
    switch (op_) {
      case sql::Condition::Op::kEq:
        return literal_present_ && code == literal_code_;
      case sql::Condition::Op::kNeq:
        return code != relation::kNullCode &&
               (!literal_present_ || code != literal_code_);
      case sql::Condition::Op::kIsNull:
        return code == relation::kNullCode;
      case sql::Condition::Op::kIsNotNull:
        return code != relation::kNullCode;
    }
    return false;
  }

 private:
  int col_ = -1;
  sql::Condition::Op op_;
  uint32_t literal_code_ = relation::kNullCode;
  bool literal_present_ = false;
  bool matches_nothing_ = false;
};

/// Live rows of `rel` passing every condition, in physical row order.
inline std::vector<size_t> OracleMatchingRows(
    const relation::Relation& rel, const std::vector<sql::Condition>& where) {
  std::vector<OracleCondition> conds;
  for (const auto& c : where) conds.emplace_back(rel, c);
  std::vector<size_t> rows;
  for (size_t row = 0; row < rel.tuple_count(); ++row) {
    if (!rel.is_live(row)) continue;
    bool pass = true;
    for (const auto& c : conds) pass = pass && c.Pass(rel, row);
    if (pass) rows.push_back(row);
  }
  return rows;
}

/// The rows COUNT(DISTINCT `cols`) counts among `rows`: those with no NULL
/// in any counted column.
inline std::vector<size_t> OracleNonNullRows(const relation::Relation& rel,
                                             const std::vector<size_t>& rows,
                                             const std::vector<int>& cols) {
  std::vector<size_t> kept;
  for (size_t row : rows) {
    bool has_null = false;
    for (int c : cols) {
      has_null |= rel.column(c).code(row) == relation::kNullCode;
    }
    if (!has_null) kept.push_back(row);
  }
  return kept;
}

/// COUNT(*) or COUNT(DISTINCT ...) of `query` on `rel`, row at a time.
inline uint64_t OracleCount(const relation::Relation& rel,
                            const sql::CountQuery& query) {
  std::vector<size_t> rows = OracleMatchingRows(rel, query.where);
  if (!query.distinct) return rows.size();
  std::vector<int> cols;
  for (const auto& name : query.columns) {
    const int idx = rel.schema().IndexOf(name);
    if (idx < 0) throw std::invalid_argument("unknown column '" + name + "'");
    cols.push_back(idx);
  }
  std::set<std::vector<uint32_t>> tuples;
  for (size_t row : OracleNonNullRows(rel, rows, cols)) {
    std::vector<uint32_t> key;
    for (int c : cols) key.push_back(rel.column(c).code(row));
    tuples.insert(std::move(key));
  }
  return tuples.size();
}

}  // namespace fdevolve::testsupport
