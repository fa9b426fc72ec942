// Differential fuzzing of the SQL engine's statement paths.
//
// Random WHERE conjunctions of =, <> and IS [NOT] NULL run against
// instances with int, double and string columns, NULLs, narrow and wide
// domains, tombstones and one compaction. Literals are present, absent,
// NULL or of the wrong type (an integer literal on a double column
// coerces). The engine answers from byte masks over the column codes and
// counts distinct tuples on the query kernels; the row-at-a-time oracle in
// support/sql_oracle.h must agree on COUNT(*), COUNT(DISTINCT ...), the
// rows a DELETE tombstones (in physical order) and the relation an UPDATE
// leaves. Reproducible via --seed=N / FDEVOLVE_SEED.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "query/distinct.h"
#include "sql/engine.h"
#include "storage/snapshot.h"
#include "support/fuzz_seed.h"
#include "support/sql_oracle.h"
#include "util/rng.h"

namespace fdevolve::sql {
namespace {

using relation::DataType;
using relation::Relation;
using relation::Schema;
using relation::Value;

// Columns: narrow int, wide int, double, narrow string, wide string.
constexpr int kNarrowInt = 0;
constexpr int kWideInt = 1;
constexpr int kDouble = 2;
constexpr int kNarrowStr = 3;
constexpr int kWideStr = 4;
constexpr int kCols = 5;

Schema FuzzSchema() {
  return Schema({{"ni", DataType::kInt64},
                 {"wi", DataType::kInt64},
                 {"d", DataType::kDouble},
                 {"ns", DataType::kString},
                 {"ws", DataType::kString}});
}

/// A non-NULL value of column `col`'s domain. The double domain holds
/// both signed zeros and NaN.
Value DomainValue(util::Rng& rng, int col) {
  switch (col) {
    case kNarrowInt:
      return Value(static_cast<int64_t>(rng.Below(4)));
    case kWideInt:
      return Value(static_cast<int64_t>(rng.Below(3000)));
    case kDouble: {
      static const double kDoubles[] = {0.0, -0.0, 0.5, 1.0, 2.0, 3.0};
      if (rng.Chance(0.05)) return Value(std::nan(""));
      return Value(kDoubles[rng.Below(6)]);
    }
    case kNarrowStr:
      return Value("n" + std::to_string(rng.Below(3)));
    default:
      return Value("w" + std::to_string(rng.Below(3000)));
  }
}

std::vector<Value> RandomRow(util::Rng& rng) {
  std::vector<Value> row;
  for (int c = 0; c < kCols; ++c) {
    row.push_back(rng.Chance(0.15) ? Value::Null() : DomainValue(rng, c));
  }
  return row;
}

void DeleteSome(util::Rng& rng, Relation& rel, double rate) {
  for (size_t t = 0; t < rel.tuple_count(); ++t) {
    if (rel.is_live(t) && rng.Chance(rate)) rel.DeleteRow(t);
  }
}

/// Appends, deletes, compacts once, then appends and deletes again, so
/// the instance carries tombstones over a rebuilt dictionary.
Relation RandomInstance(util::Rng& rng) {
  Relation rel("m", FuzzSchema());
  const size_t first = 100 + rng.Below(1500);
  for (size_t i = 0; i < first; ++i) rel.AppendRow(RandomRow(rng));
  DeleteSome(rng, rel, 0.3);
  rel.Compact();
  const size_t second = 50 + rng.Below(800);
  for (size_t i = 0; i < second; ++i) rel.AppendRow(RandomRow(rng));
  DeleteSome(rng, rel, 0.2);
  return rel;
}

/// A literal for a condition on `col`: present in the column (a random
/// cell, possibly NULL), absent from it, NULL, or of another type.
Value RandomLiteral(util::Rng& rng, const Relation& rel, int col) {
  switch (rng.Below(5)) {
    case 0:
    case 1:
      return rel.Get(rng.Below(rel.tuple_count()), col);
    case 2:
      switch (col) {
        case kNarrowInt:
        case kWideInt:
          return Value(int64_t{-7});
        case kDouble:
          return Value(7.25);
        default:
          return Value("absent");
      }
    case 3:
      return Value::Null();
    default:
      switch (col) {
        case kNarrowInt:
        case kWideInt:
          // A double never matches an int column.
          return rng.Chance(0.5) ? Value(1.0) : Value("1");
        case kDouble:
          // Integer literals coerce: 0..3 are present as doubles.
          return rng.Chance(0.7) ? Value(static_cast<int64_t>(rng.Below(5)))
                                 : Value("1.0");
        default:
          return Value(int64_t{1});
      }
  }
}

std::vector<Condition> RandomWhere(util::Rng& rng, const Relation& rel) {
  static const Condition::Op kOps[] = {
      Condition::Op::kEq, Condition::Op::kNeq, Condition::Op::kIsNull,
      Condition::Op::kIsNotNull};
  std::vector<Condition> where;
  const size_t k = rng.Below(4);
  for (size_t i = 0; i < k; ++i) {
    Condition c;
    const int col = static_cast<int>(rng.Below(kCols));
    c.column = rel.schema().attr(col).name;
    c.op = kOps[rng.Below(4)];
    if (c.op == Condition::Op::kEq || c.op == Condition::Op::kNeq) {
      c.literal = RandomLiteral(rng, rel, col);
    }
    where.push_back(std::move(c));
  }
  return where;
}

std::string Describe(const std::vector<Condition>& where) {
  std::string s;
  for (const auto& c : where) s += (s.empty() ? "" : " AND ") + c.ToString();
  return s.empty() ? "(no WHERE)" : s;
}

/// Rows `rows` of `rel` appended in order to a fresh relation.
Relation Subset(const Relation& rel, const std::vector<size_t>& rows) {
  Relation out("subset", rel.schema());
  for (size_t row : rows) {
    std::vector<Value> cells;
    for (int a = 0; a < rel.attr_count(); ++a) cells.push_back(rel.Get(row, a));
    out.AppendRow(cells);
  }
  return out;
}

class EngineFuzz : public ::testing::TestWithParam<int> {
 protected:
  uint64_t seed() const { return testsupport::DeriveSeed(GetParam()); }
};

TEST_P(EngineFuzz, CountsMatchRowAtATimeOracle) {
  util::Rng rng(seed());
  Database catalog;
  const Relation& rel = catalog.AddRelation(RandomInstance(rng));
  const Database& db = catalog;
  for (int q = 0; q < 60; ++q) {
    CountQuery count;
    count.table = "m";
    count.where = RandomWhere(rng, rel);
    EXPECT_EQ(Execute(count, db), testsupport::OracleCount(rel, count))
        << "COUNT(*) WHERE " << Describe(count.where);

    CountQuery distinct = count;
    distinct.distinct = true;
    std::vector<int> cols;
    relation::AttrSet attrs;
    const size_t width = 1 + rng.Below(3);
    for (size_t i = 0; i < width; ++i) {
      const int c = static_cast<int>(rng.Below(kCols));
      distinct.columns.push_back(rel.schema().attr(c).name);
      cols.push_back(c);
      attrs.Add(c);
    }
    const uint64_t got = Execute(distinct, db);
    EXPECT_EQ(got, testsupport::OracleCount(rel, distinct))
        << distinct.ToString();
    // The same count from the core evaluator over the filtered rows.
    const Relation filtered = Subset(
        rel, testsupport::OracleNonNullRows(
                 rel, testsupport::OracleMatchingRows(rel, distinct.where),
                 cols));
    EXPECT_EQ(got, query::DistinctCount(filtered, attrs))
        << distinct.ToString();
  }
}

TEST_P(EngineFuzz, DeleteTombstonesTheOracleRowsInPhysicalOrder) {
  util::Rng rng(seed() ^ 0xde1e7eULL);
  const Relation base = RandomInstance(rng);
  for (int q = 0; q < 25; ++q) {
    Database db;
    const Relation& rel = db.AddRelation(base);
    DeleteStatement del;
    del.table = "m";
    del.where = RandomWhere(rng, rel);
    const std::vector<size_t> expected =
        testsupport::OracleMatchingRows(rel, del.where);
    const size_t log_before = rel.deletion_log().size();
    EXPECT_EQ(Execute(del, db), expected.size()) << Describe(del.where);
    const std::vector<uint32_t>& log = rel.deletion_log();
    ASSERT_EQ(log.size() - log_before, expected.size()) << Describe(del.where);
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(log[log_before + i], expected[i]) << Describe(del.where);
    }
  }
}

TEST_P(EngineFuzz, UpdateLeavesTheOracleRelation) {
  util::Rng rng(seed() ^ 0x0bda7eULL);
  const Relation base = RandomInstance(rng);
  for (int q = 0; q < 25; ++q) {
    Database db;
    const Relation& rel = db.AddRelation(base);
    UpdateStatement upd;
    upd.table = "m";
    upd.where = RandomWhere(rng, rel);
    const size_t sets = 1 + rng.Below(2);
    for (size_t i = 0; i < sets; ++i) {
      const int col = static_cast<int>(rng.Below(kCols));
      Value v = rng.Chance(0.1) ? Value::Null() : DomainValue(rng, col);
      if (col == kDouble && rng.Chance(0.3)) {
        v = Value(static_cast<int64_t>(rng.Below(4)));  // coerces
      }
      upd.assignments.push_back({rel.schema().attr(col).name, v});
    }

    // Oracle: delete each matched row and append its rewrite, in
    // physical order, on a copy of the instance.
    Relation expected = base;
    const std::vector<size_t> rows =
        testsupport::OracleMatchingRows(expected, upd.where);
    for (size_t row : rows) {
      std::vector<Value> cells;
      for (int a = 0; a < expected.attr_count(); ++a) {
        cells.push_back(expected.Get(row, a));
      }
      for (const auto& a : upd.assignments) {
        const int idx = expected.schema().IndexOf(a.column);
        Value v = a.value;
        if (v.is_int() && idx == kDouble) {
          v = Value(static_cast<double>(v.as_int()));
        }
        cells[static_cast<size_t>(idx)] = v;
      }
      expected.DeleteRow(row);
      expected.AppendRow(cells);
    }

    EXPECT_EQ(Execute(upd, db), rows.size()) << upd.ToString();
    EXPECT_EQ(storage::SerializeRelation(rel),
              storage::SerializeRelation(expected))
        << upd.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineFuzz, ::testing::Range(0, 6));

}  // namespace
}  // namespace fdevolve::sql
