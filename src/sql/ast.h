// AST for the mini-SQL dialect.
//
// Grammar (enough to express everything §4.4 issues, plus simple
// selections for the conditional-FD extension, plus the INSERT the
// paper's monitoring scenario feeds on, plus the DDL / monitoring
// statements the FD-monitoring server multiplexes over one catalog):
//
//   statement  := query | insert | delete | update | create | declare_fd
//               | explain | checkpoint | shutdown | subscribe
//   query      := SELECT COUNT '(' (DISTINCT columns | '*') ')'
//                 FROM identifier [WHERE condition (AND condition)*]
//   insert     := INSERT INTO identifier VALUES row (',' row)*
//   delete     := DELETE FROM identifier
//                 [WHERE condition (AND condition)*]
//   update     := UPDATE identifier SET identifier '=' literal
//                 (',' identifier '=' literal)*
//                 [WHERE condition (AND condition)*]
//   create     := CREATE TABLE identifier
//                 '(' identifier type (',' identifier type)* ')'
//   declare_fd := DECLARE FD columns '->' columns ON identifier
//                 [EVERY number] [SAMPLE number [SEED number]]
//   explain    := EXPLAIN REPAIR columns '->' columns ON identifier
//   checkpoint := CHECKPOINT
//   shutdown   := SHUTDOWN
//   subscribe  := SUBSCRIBE DRIFT ON identifier
//   row        := '(' literal (',' literal)* ')'
//   columns    := identifier (',' identifier)*
//   condition  := identifier ('=' | '<>') literal
//               | identifier IS [NOT] NULL
//   literal    := number | string | NULL
//   type       := INT64 | INT | DOUBLE | FLOAT | STRING | STR (identifier,
//                 matched case-insensitively — not reserved words)
#pragma once

#include <string>
#include <variant>
#include <vector>

#include "relation/schema.h"
#include "relation/value.h"

namespace fdevolve::sql {

/// Renders a name as a dialect identifier: bare when it lexes back as the
/// same unquoted identifier, otherwise "quoted" with embedded quotes
/// doubled. Every ToString in this file routes names through here, so
/// parse(ToString(ast)) == ast holds for any identifier the lexer accepts.
std::string QuoteIdentifier(const std::string& name);

/// One WHERE conjunct.
struct Condition {
  enum class Op { kEq, kNeq, kIsNull, kIsNotNull };

  std::string column;
  Op op = Op::kEq;
  relation::Value literal;  // unused for IS [NOT] NULL

  std::string ToString() const;
};

/// SELECT COUNT(DISTINCT ...) / COUNT(*) FROM table [WHERE ...].
struct CountQuery {
  bool distinct = false;                // COUNT(*) when false
  std::vector<std::string> columns;     // empty for COUNT(*)
  std::string table;
  std::vector<Condition> where;         // conjunction

  std::string ToString() const;
};

/// INSERT INTO table VALUES (...), (...). Rows carry parsed literals; the
/// engine validates them against the target schema at execution time.
struct InsertStatement {
  std::string table;
  std::vector<std::vector<relation::Value>> rows;

  std::string ToString() const;
};

/// DELETE FROM table [WHERE ...] — tombstones every live row matching the
/// conjunction (all live rows when the WHERE is absent). The engine never
/// rewrites surviving rows; see relation::Relation::DeleteRow.
struct DeleteStatement {
  std::string table;
  std::vector<Condition> where;  // conjunction; empty = all rows

  std::string ToString() const;
};

/// One SET column = literal assignment of an UPDATE.
struct Assignment {
  std::string column;
  relation::Value value;
};

/// UPDATE table SET a = 1, b = 'x' [WHERE ...] — executed as
/// delete-old + append-derived-row per matched live row, in physical row
/// order against the pre-statement row set (appended rows are not
/// re-matched).
struct UpdateStatement {
  std::string table;
  std::vector<Assignment> assignments;
  std::vector<Condition> where;  // conjunction; empty = all rows

  std::string ToString() const;
};

/// CREATE TABLE t (a INT64, b STRING, ...) — registers an empty relation
/// in the catalog.
struct CreateTableStatement {
  std::string table;
  std::vector<relation::Attribute> attrs;

  std::string ToString() const;
};

/// DECLARE FD a, b -> c ON t [EVERY n] [SAMPLE k [SEED s]] — declares the
/// FD in the catalog and (in a server session) registers it with the
/// table's monitor. Columns are stored by name; the engine resolves them
/// against the table's schema at execution time. With SAMPLE, validation
/// runs on a seeded reservoir sample of k rows instead of the full
/// relation (a sampled fd::SchemaMonitor) and drift events carry estimates
/// with error intervals.
struct DeclareFdStatement {
  std::string table;
  std::vector<std::string> lhs;
  std::vector<std::string> rhs;
  /// Monitor check interval (EVERY n); 0 = unspecified, the executor's
  /// default applies (the server checks after every INSERT statement).
  size_t check_interval = 0;
  /// Reservoir capacity (SAMPLE k); 0 = exact monitoring, no sampling.
  size_t sample_size = 0;
  /// Sampler seed (SEED s); only meaningful with SAMPLE. ToString omits
  /// a zero seed, which reparses to the same statement.
  uint64_t sample_seed = 0;

  std::string ToString() const;
};

/// EXPLAIN REPAIR a, b -> c ON t — renders the repair-search plan for the
/// FD on the table's current live instance: original measures, column
/// statistics, the planner's candidate order with cost estimates and
/// cardinality bounds, and which branches the bound prunes. Estimates
/// only — no candidate is evaluated and the relation is not modified.
struct ExplainRepairStatement {
  std::string table;
  std::vector<std::string> lhs;
  std::vector<std::string> rhs;

  std::string ToString() const;
};

/// CHECKPOINT — persist the server's state to its configured snapshot
/// path. Only meaningful in a server session.
struct CheckpointStatement {
  std::string ToString() const;
};

/// SHUTDOWN — checkpoint (if configured) and stop the server. Only
/// meaningful in a server session.
struct ShutdownStatement {
  std::string ToString() const;
};

/// SUBSCRIBE DRIFT ON t — push this table's drift events to the issuing
/// session as they fire. Only meaningful in a server session.
struct SubscribeStatement {
  std::string table;

  std::string ToString() const;
};

/// Any parsable statement (see ParseStatement in parser.h).
using Statement =
    std::variant<CountQuery, InsertStatement, DeleteStatement, UpdateStatement,
                 CreateTableStatement, DeclareFdStatement,
                 ExplainRepairStatement, CheckpointStatement,
                 ShutdownStatement, SubscribeStatement>;

}  // namespace fdevolve::sql
