// Execution of parsed statements against a Database — the paper's Q1/Q2
// path plus the mutations the monitoring scenario feeds on.
//
// A WHERE conjunction becomes one byte mask over the pre-statement
// physical rows: the tombstone bitmap ANDed with each condition, compared
// on dictionary codes with the literal resolved by
// relation::Column::FindCode (an integer literal meets a double column as
// a double). COUNT(*) counts the mask; COUNT(DISTINCT ...) is
// query::GroupCountBy over it, with SQL semantics: rows where any DISTINCT
// column is NULL are excluded, and `col = NULL` never matches (use IS
// NULL). DELETE and UPDATE act on the mask's rows in physical order.
#pragma once

#include <cstdint>

#include "sql/ast.h"
#include "sql/database.h"

namespace fdevolve::sql {

/// Executes a parsed query. Throws std::invalid_argument for unknown
/// tables/columns (schema errors are not SqlErrors: the text was valid).
uint64_t Execute(const CountQuery& query, const Database& db);

/// Executes a parsed INSERT against the catalog; returns the number of
/// rows inserted. Integer literals are coerced to double for double
/// columns (SQL numeric literals are typeless); any other type mismatch,
/// arity mismatch, or unknown table throws std::invalid_argument and — by
/// relation::Relation::AppendRows' all-or-nothing contract — leaves the
/// relation unchanged.
uint64_t Execute(const InsertStatement& insert, Database& db);

/// Executes a parsed DELETE: tombstones every live row matching the WHERE
/// conjunction (every live row when it is absent), in physical row order.
/// Returns the number of rows deleted. Throws std::invalid_argument on
/// unknown table/columns, before any row is touched.
uint64_t Execute(const DeleteStatement& del, Database& db);

/// Executes a parsed UPDATE: for each live row matching the WHERE
/// conjunction (matched against the pre-statement row set, so appended
/// result rows are never re-matched), tombstones the old row and appends
/// the updated one, in physical row order. Returns the number of rows
/// updated. Assignments are validated up front — unknown column, NULL-able
/// assignment aside, a type mismatch (integer literals coerce to double
/// columns; nothing else coerces) throws std::invalid_argument BEFORE any
/// mutation, so a failed UPDATE leaves the relation unchanged.
uint64_t Execute(const UpdateStatement& update, Database& db);

/// Executes a parsed CREATE TABLE: registers an empty relation. Returns 0.
/// Throws std::invalid_argument on duplicate table or column names.
uint64_t Execute(const CreateTableStatement& create, Database& db);

/// Executes a parsed DECLARE FD: resolves the column names against the
/// table's schema and declares the FD in the catalog. Returns 0. Throws
/// std::invalid_argument on unknown table/columns or an invalid FD
/// (overlapping sides). The EVERY interval is *not* catalog state — it
/// configures the monitor in a server session (see server::Service);
/// executing against a bare Database ignores it.
uint64_t Execute(const DeclareFdStatement& declare, Database& db);

/// Executes a parsed EXPLAIN REPAIR: resolves the FD against the table's
/// schema, builds the repair-search plan (fd::PlanRepair) over the current
/// live instance, and returns fd::DescribePlan's multi-line rendering.
/// Read-only — no candidate is evaluated and the relation is unchanged.
/// Throws std::invalid_argument on unknown table/columns or an invalid FD.
std::string Execute(const ExplainRepairStatement& explain, const Database& db);

/// Executes any parsed statement (reads need only const access; this
/// overload exists for writes). CHECKPOINT / SHUTDOWN / SUBSCRIBE DRIFT
/// only make sense against a server session and throw
/// std::invalid_argument here.
uint64_t Execute(const Statement& stmt, Database& db);

/// Convenience: parse + execute a COUNT query (read-only catalogs).
uint64_t ExecuteSql(const std::string& text, const Database& db);

/// Convenience: parse + execute any statement, INSERT included.
uint64_t ExecuteSql(const std::string& text, Database& db);

}  // namespace fdevolve::sql
