#include <gtest/gtest.h>

#include <cmath>

#include "datagen/places.h"
#include "query/distinct.h"
#include "sql/engine.h"
#include "sql/parser.h"

namespace fdevolve::sql {
namespace {

using relation::DataType;
using relation::Relation;
using relation::RelationBuilder;
using relation::Schema;
using relation::Value;

Database MakeDb() {
  Database db;
  db.AddRelation(datagen::MakePlaces());
  Schema schema({{"a", DataType::kInt64},
                 {"b", DataType::kString},
                 {"c", DataType::kInt64}});
  db.AddRelation(RelationBuilder("t", schema)
                     .Row({int64_t{1}, "x", int64_t{10}})
                     .Row({int64_t{1}, "y", Value::Null()})
                     .Row({int64_t{2}, "x", int64_t{10}})
                     .Row({int64_t{2}, "x", int64_t{20}})
                     .Build());
  return db;
}

TEST(EngineTest, PaperQ1AndQ2) {
  Database db = MakeDb();
  // §4.4: confidence of F1 = Q1 / Q2 = 2 / 4.
  EXPECT_EQ(ExecuteSql("select count(distinct District, Region) from Places",
                       db),
            2u);
  EXPECT_EQ(ExecuteSql(
                "select count(distinct District, Region, AreaCode) from Places",
                db),
            4u);
}

TEST(EngineTest, CountStar) {
  Database db = MakeDb();
  EXPECT_EQ(ExecuteSql("SELECT COUNT(*) FROM Places", db), 11u);
  EXPECT_EQ(ExecuteSql("SELECT COUNT(*) FROM t", db), 4u);
}

TEST(EngineTest, WhereEquality) {
  Database db = MakeDb();
  EXPECT_EQ(ExecuteSql("SELECT COUNT(*) FROM t WHERE a = 1", db), 2u);
  EXPECT_EQ(ExecuteSql("SELECT COUNT(*) FROM t WHERE b = 'x'", db), 3u);
  EXPECT_EQ(ExecuteSql("SELECT COUNT(*) FROM t WHERE a = 99", db), 0u);
}

TEST(EngineTest, WhereNeq) {
  Database db = MakeDb();
  EXPECT_EQ(ExecuteSql("SELECT COUNT(*) FROM t WHERE b <> 'x'", db), 1u);
  // <> against a value not in the column: all non-NULL rows pass.
  EXPECT_EQ(ExecuteSql("SELECT COUNT(*) FROM t WHERE b <> 'zzz'", db), 4u);
}

TEST(EngineTest, NullSemantics) {
  Database db = MakeDb();
  EXPECT_EQ(ExecuteSql("SELECT COUNT(*) FROM t WHERE c IS NULL", db), 1u);
  EXPECT_EQ(ExecuteSql("SELECT COUNT(*) FROM t WHERE c IS NOT NULL", db), 3u);
  // = NULL matches nothing (three-valued logic).
  EXPECT_EQ(ExecuteSql("SELECT COUNT(*) FROM t WHERE c = NULL", db), 0u);
  // COUNT(DISTINCT c) skips the NULL row: values {10, 20}.
  EXPECT_EQ(ExecuteSql("SELECT COUNT(DISTINCT c) FROM t", db), 2u);
}

TEST(EngineTest, DistinctWithWhere) {
  Database db = MakeDb();
  EXPECT_EQ(ExecuteSql("SELECT COUNT(DISTINCT a) FROM t WHERE b = 'x'", db),
            2u);
  EXPECT_EQ(
      ExecuteSql("SELECT COUNT(DISTINCT a, c) FROM t WHERE b = 'x'", db), 3u);
}

TEST(EngineTest, DeleteTombstonesMatchingRows) {
  Database db = MakeDb();
  EXPECT_EQ(ExecuteSql("DELETE FROM t WHERE b = 'x'", db), 3u);
  const relation::Relation& rel = db.Get("t");
  // Physical rows stay; the logical instance shrinks.
  EXPECT_EQ(rel.tuple_count(), 4u);
  EXPECT_EQ(rel.live_count(), 1u);
  EXPECT_EQ(ExecuteSql("SELECT COUNT(*) FROM t", db), 1u);
  EXPECT_EQ(ExecuteSql("SELECT COUNT(*) FROM t WHERE b = 'x'", db), 0u);
  EXPECT_EQ(ExecuteSql("SELECT COUNT(DISTINCT a) FROM t", db), 1u);
  // Deleting already-deleted rows matches nothing.
  EXPECT_EQ(ExecuteSql("DELETE FROM t WHERE b = 'x'", db), 0u);
  // No WHERE = empty the table.
  EXPECT_EQ(ExecuteSql("DELETE FROM t", db), 1u);
  EXPECT_EQ(ExecuteSql("SELECT COUNT(*) FROM t", db), 0u);
}

TEST(EngineTest, UpdateRewritesMatchingRows) {
  Database db = MakeDb();
  EXPECT_EQ(ExecuteSql("UPDATE t SET b = 'z' WHERE a = 1", db), 2u);
  EXPECT_EQ(ExecuteSql("SELECT COUNT(*) FROM t WHERE b = 'z'", db), 2u);
  EXPECT_EQ(ExecuteSql("SELECT COUNT(*) FROM t WHERE b = 'y'", db), 0u);
  // Untouched columns keep their values (row {1,"y",NULL} → {1,"z",NULL}).
  EXPECT_EQ(
      ExecuteSql("SELECT COUNT(*) FROM t WHERE b = 'z' AND c IS NULL", db),
      1u);
  EXPECT_EQ(ExecuteSql("SELECT COUNT(*) FROM t", db), 4u);
}

TEST(EngineTest, UpdateMatchesPreStatementRowsOnly) {
  Database db = MakeDb();
  // The appended rewrites satisfy the predicate too; they must not be
  // re-matched (a = 1 stays a = 1 exactly once per original row).
  EXPECT_EQ(ExecuteSql("UPDATE t SET a = 1 WHERE a = 1", db), 2u);
  EXPECT_EQ(ExecuteSql("SELECT COUNT(*) FROM t WHERE a = 1", db), 2u);
}

TEST(EngineTest, UpdateValidatesBeforeMutating) {
  Database db = MakeDb();
  // Unknown column / type mismatch fail with the table untouched.
  EXPECT_THROW(ExecuteSql("UPDATE t SET zz = 1", db), std::exception);
  EXPECT_THROW(ExecuteSql("UPDATE t SET a = 'nope'", db), std::exception);
  EXPECT_EQ(ExecuteSql("SELECT COUNT(*) FROM t", db), 4u);
  EXPECT_EQ(db.Get("t").deletes_ever(), 0u);
  EXPECT_EQ(db.Get("t").compactions(), 0u);
  // Int literals coerce into double columns (SET c was declared INT64 in
  // MakeDb's schema for t — use Places' Lat-style column instead: c is
  // int64, so coerce the other way is rejected).
  EXPECT_THROW(ExecuteSql("UPDATE t SET c = 2.5", db), std::exception);
}

TEST(EngineTest, UpdateCoercesIntLiteralIntoDoubleColumn) {
  Database db;
  relation::Schema schema({{"a", relation::DataType::kInt64},
                           {"d", relation::DataType::kDouble}});
  db.AddRelation(RelationBuilder("m", schema)
                     .Row({int64_t{1}, 1.5})
                     .Row({int64_t{2}, 2.5})
                     .Build());
  EXPECT_EQ(ExecuteSql("UPDATE m SET d = 3 WHERE a = 1", db), 1u);
  EXPECT_EQ(ExecuteSql("SELECT COUNT(*) FROM m WHERE d = 3.0", db), 1u);
}

TEST(EngineTest, WhereCoercesIntLiteralOnDoubleColumn) {
  // An integer literal compared with a double column reads as a double,
  // as it does in INSERT and UPDATE ... SET.
  Database db;
  relation::Schema schema({{"a", relation::DataType::kInt64},
                           {"d", relation::DataType::kDouble}});
  db.AddRelation(RelationBuilder("m", schema)
                     .Row({int64_t{1}, 3.0})
                     .Row({int64_t{2}, 2.5})
                     .Row({int64_t{3}, 3.0})
                     .Build());
  EXPECT_EQ(ExecuteSql("SELECT COUNT(*) FROM m WHERE d = 3", db), 2u);
  EXPECT_EQ(ExecuteSql("SELECT COUNT(*) FROM m WHERE d <> 3", db), 1u);
  EXPECT_EQ(ExecuteSql("SELECT COUNT(DISTINCT a) FROM m WHERE d = 3", db), 2u);
  EXPECT_EQ(ExecuteSql("UPDATE m SET a = 9 WHERE d = 3", db), 2u);
  EXPECT_EQ(ExecuteSql("SELECT COUNT(*) FROM m WHERE a = 9", db), 2u);
  EXPECT_EQ(ExecuteSql("DELETE FROM m WHERE d = 3", db), 2u);
  EXPECT_EQ(ExecuteSql("SELECT COUNT(*) FROM m", db), 1u);
  // The reverse does not coerce: a double literal never matches an int
  // column.
  EXPECT_EQ(ExecuteSql("SELECT COUNT(*) FROM m WHERE a = 2.0", db), 0u);
}

TEST(EngineTest, SignedZerosAreOneValue) {
  // -0.0 == 0.0, so both share one dictionary code and read back as the
  // zero inserted first.
  Database db;
  db.AddRelation(
      Relation("z", relation::Schema({{"d", relation::DataType::kDouble}})));
  EXPECT_EQ(ExecuteSql("INSERT INTO z VALUES (0.0), (-0.0)", db), 2u);
  const Relation& rel = db.Get("z");
  EXPECT_EQ(rel.column(0).dict_size(), 1u);
  EXPECT_FALSE(std::signbit(rel.Get(1, 0).as_double()));
  EXPECT_EQ(ExecuteSql("SELECT COUNT(DISTINCT d) FROM z", db), 1u);
  EXPECT_EQ(ExecuteSql("SELECT COUNT(*) FROM z WHERE d = 0.0", db), 2u);
  EXPECT_EQ(ExecuteSql("SELECT COUNT(*) FROM z WHERE d = -0.0", db), 2u);
}

TEST(EngineTest, ConjunctionAndsConditions) {
  Database db = MakeDb();
  EXPECT_EQ(
      ExecuteSql("SELECT COUNT(*) FROM t WHERE a = 2 AND c = 20", db), 1u);
  EXPECT_EQ(
      ExecuteSql("SELECT COUNT(*) FROM t WHERE a = 1 AND c = 20", db), 0u);
}

TEST(EngineTest, UnknownTableOrColumnThrows) {
  Database db = MakeDb();
  EXPECT_THROW(ExecuteSql("SELECT COUNT(*) FROM nope", db),
               std::invalid_argument);
  EXPECT_THROW(ExecuteSql("SELECT COUNT(DISTINCT nope) FROM t", db),
               std::invalid_argument);
  EXPECT_THROW(ExecuteSql("SELECT COUNT(*) FROM t WHERE nope = 1", db),
               std::invalid_argument);
}

TEST(EngineTest, TypedLiteralMismatchSelectsNothing) {
  Database db = MakeDb();
  // String literal against int column: no dictionary value matches.
  EXPECT_EQ(ExecuteSql("SELECT COUNT(*) FROM t WHERE a = '1'", db), 0u);
}

TEST(EngineTest, AgreesWithCoreDistinctOnPlaces) {
  Database db = MakeDb();
  const auto& places = db.Get("Places");
  query::DistinctEvaluator eval(places);
  const auto& s = places.schema();
  // Every column and every adjacent pair.
  for (int i = 0; i < s.size(); ++i) {
    std::string q1 = "SELECT COUNT(DISTINCT " + s.attr(i).name + ") FROM Places";
    EXPECT_EQ(ExecuteSql(q1, db), eval.Count(relation::AttrSet::Of({i})));
    for (int j = i + 1; j < s.size(); ++j) {
      std::string q2 = "SELECT COUNT(DISTINCT " + s.attr(i).name + ", " +
                       s.attr(j).name + ") FROM Places";
      EXPECT_EQ(ExecuteSql(q2, db),
                eval.Count(relation::AttrSet::Of({i, j})));
    }
  }
}

TEST(EngineTest, InsertAppendsRows) {
  Database db = MakeDb();
  EXPECT_EQ(ExecuteSql("SELECT COUNT(*) FROM t", db), 4u);
  EXPECT_EQ(ExecuteSql("INSERT INTO t VALUES (3, 'z', 30), (3, 'z', NULL)",
                       db),
            2u);
  EXPECT_EQ(ExecuteSql("SELECT COUNT(*) FROM t", db), 6u);
  EXPECT_EQ(ExecuteSql("SELECT COUNT(*) FROM t WHERE b = 'z'", db), 2u);
  EXPECT_EQ(ExecuteSql("SELECT COUNT(DISTINCT a) FROM t", db), 3u);
}

TEST(EngineTest, InsertCoercesIntLiteralIntoDoubleColumn) {
  Database db;
  relation::Schema schema(
      {{"name", DataType::kString}, {"score", DataType::kDouble}});
  db.AddRelation(Relation("d", schema));
  EXPECT_EQ(ExecuteSql("INSERT INTO d VALUES ('a', 1), ('b', 2.5)", db), 2u);
  EXPECT_EQ(db.Get("d").Get(0, 1), Value(1.0));
  EXPECT_EQ(db.Get("d").Get(1, 1), Value(2.5));
}

TEST(EngineTest, InsertRejectsBadRowsAllOrNothing) {
  Database db = MakeDb();
  // Second row's arity is wrong: nothing from the statement may land.
  EXPECT_THROW(ExecuteSql("INSERT INTO t VALUES (9, 'ok', 1), (8, 'short')",
                          db),
               std::invalid_argument);
  EXPECT_EQ(ExecuteSql("SELECT COUNT(*) FROM t", db), 4u);
  // Double literal into an int column is not silently truncated.
  EXPECT_THROW(ExecuteSql("INSERT INTO t VALUES (1.5, 'x', 1)", db),
               std::invalid_argument);
  EXPECT_EQ(ExecuteSql("SELECT COUNT(*) FROM t", db), 4u);
}

TEST(EngineTest, InsertUnknownTableThrows) {
  Database db = MakeDb();
  EXPECT_THROW(ExecuteSql("INSERT INTO nope VALUES (1)", db),
               std::invalid_argument);
}

TEST(EngineTest, ExplainRepairRendersPlan) {
  Database db = MakeDb();
  // b -> c drifts on t ('x' maps to 10 and 20); the only pool candidate
  // is a.
  const Database& cdb = db;
  const auto stmt = std::get<ExplainRepairStatement>(
      ParseStatement("EXPLAIN REPAIR b -> c ON t"));
  const std::string plan = Execute(stmt, cdb);
  EXPECT_NE(plan.find("repair plan for [b] -> [c]"), std::string::npos);
  EXPECT_NE(plan.find("+a"), std::string::npos);
  EXPECT_NE(plan.find("4 live rows"), std::string::npos);
  // The generic statement path validates and returns 0 (no count to
  // report).
  EXPECT_EQ(ExecuteSql("EXPLAIN REPAIR b -> c ON t", db), 0u);
  // An exact FD explains to the short-circuit form.
  Schema schema({{"k", DataType::kInt64}, {"v", DataType::kInt64}});
  db.AddRelation(RelationBuilder("exact", schema)
                     .Row({int64_t{1}, int64_t{10}})
                     .Row({int64_t{2}, int64_t{20}})
                     .Build());
  const auto exact = std::get<ExplainRepairStatement>(
      ParseStatement("EXPLAIN REPAIR k -> v ON exact"));
  EXPECT_NE(Execute(exact, cdb).find("already meets target"),
            std::string::npos);
}

TEST(EngineTest, ExplainRepairUnknownNamesThrow) {
  Database db = MakeDb();
  EXPECT_THROW(ExecuteSql("EXPLAIN REPAIR b -> c ON nope", db),
               std::invalid_argument);
  EXPECT_THROW(ExecuteSql("EXPLAIN REPAIR nope -> c ON t", db),
               std::invalid_argument);
}

TEST(EngineTest, SqlDrivenMonitoringScenario) {
  // The paper's prototype workflow end to end in SQL: declare, watch the
  // confidence queries, insert the drift, watch them diverge.
  Database db = MakeDb();
  Schema schema({{"zip", DataType::kString}, {"state", DataType::kString}});
  db.AddRelation(RelationBuilder("addr", schema)
                     .Row({"10001", "NY"})
                     .Row({"02101", "MA"})
                     .Build());
  // Exact: |π_zip| == |π_zip,state| (Q1 == Q2).
  EXPECT_EQ(ExecuteSql("SELECT COUNT(DISTINCT zip) FROM addr", db),
            ExecuteSql("SELECT COUNT(DISTINCT zip, state) FROM addr", db));
  ExecuteSql("INSERT INTO addr VALUES ('10001', 'NJ')", db);
  // Drifted: the split zip now maps to two states.
  EXPECT_EQ(ExecuteSql("SELECT COUNT(DISTINCT zip) FROM addr", db), 2u);
  EXPECT_EQ(ExecuteSql("SELECT COUNT(DISTINCT zip, state) FROM addr", db), 3u);
}

}  // namespace
}  // namespace fdevolve::sql
