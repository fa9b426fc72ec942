#include "sql/engine.h"

#include <algorithm>
#include <cstring>

#include "fd/planner.h"
#include "query/group_ids.h"
#include "sql/parser.h"

namespace fdevolve::sql {
namespace {

/// Index of column `name`; throws std::invalid_argument if `rel` has none.
int ColumnIndex(const relation::Relation& rel, const std::string& name) {
  const int idx = rel.schema().IndexOf(name);
  if (idx < 0) {
    throw std::invalid_argument("unknown column '" + name + "' in " +
                                rel.name());
  }
  return idx;
}

/// SQL numeric literals are typeless: an integer literal meets a double
/// column as a double. Nothing else coerces (a double literal never
/// matches or enters an int column).
relation::Value Coerce(relation::Value v, relation::DataType type) {
  if (v.is_int() && type == relation::DataType::kDouble) {
    return relation::Value(static_cast<double>(v.as_int()));
  }
  return v;
}

/// One WHERE condition resolved against a relation, as a test on the
/// column's codes: code == `code` when `equal`, else code != `code` and
/// not NULL. So IS NULL is = kNullCode and IS NOT NULL is <> kNullCode.
struct Predicate {
  const uint32_t* codes = nullptr;
  bool equal = true;
  uint32_t code = relation::kNullCode;
  bool none = false;  ///< matches no row (= or <> NULL, = an absent literal)
};

/// Resolves `where` against `rel`; throws std::invalid_argument on an
/// unknown column.
std::vector<Predicate> Compile(const relation::Relation& rel,
                               const std::vector<Condition>& where) {
  std::vector<Predicate> preds;
  for (const Condition& cond : where) {
    const relation::Column& col = rel.column(ColumnIndex(rel, cond.column));
    const bool equal =
        cond.op == Condition::Op::kEq || cond.op == Condition::Op::kIsNull;
    Predicate p{col.codes().data(), equal, relation::kNullCode, false};
    if (cond.op == Condition::Op::kEq || cond.op == Condition::Op::kNeq) {
      // SQL three-valued logic: = NULL and <> NULL match nothing. An
      // absent literal (kNullCode) matches nothing under = and every
      // non-NULL row under <>.
      p.code = col.FindCode(Coerce(cond.literal, col.type()));
      p.none = cond.literal.is_null() ||
               (p.equal && p.code == relation::kNullCode);
    }
    preds.push_back(p);
  }
  return preds;
}

/// The rows a statement acts on, as one byte per physical row of the
/// pre-statement range [0, rel.tuple_count()): set when the row is live
/// and passes every predicate. nullptr selects every row (no tombstones,
/// no predicates); otherwise the mask is the tombstone bitmap or `buf`.
/// Each predicate is one plain loop over the column's codes, which the
/// compiler vectorizes.
const uint8_t* RowMask(const relation::Relation& rel,
                       const std::vector<Predicate>& preds,
                       std::vector<uint8_t>& buf) {
  if (preds.empty()) {
    return rel.has_tombstones() ? rel.live_bitmap().data() : nullptr;
  }
  const size_t n = rel.tuple_count();
  if (rel.has_tombstones()) {
    buf = rel.live_bitmap();
  } else {
    buf.assign(n, 1);
  }
  uint8_t* mask = buf.data();
  for (const Predicate& p : preds) {
    const uint32_t* codes = p.codes;
    const uint32_t code = p.code;
    if (p.none) {
      std::fill(mask, mask + n, 0);
    } else if (p.equal) {
      for (size_t t = 0; t < n; ++t) mask[t] &= codes[t] == code;
    } else {
      for (size_t t = 0; t < n; ++t) {
        mask[t] &= (codes[t] != code) & (codes[t] != relation::kNullCode);
      }
    }
  }
  return mask;
}

/// The rows `where` selects among the live rows of `rel`, in physical
/// row order; throws std::invalid_argument on an unknown column.
std::vector<size_t> MatchingRows(const relation::Relation& rel,
                                 const std::vector<Condition>& where) {
  const size_t n = rel.tuple_count();
  std::vector<uint8_t> buf;
  const uint8_t* mask = RowMask(rel, Compile(rel, where), buf);
  if (mask == nullptr) {
    buf.assign(n, 1);
    mask = buf.data();
  }
  std::vector<size_t> rows;
  size_t t = 0;
  for (; t + 8 <= n; t += 8) {
    uint64_t word;
    std::memcpy(&word, mask + t, sizeof word);
    if (word == 0) continue;  // a key lookup leaves the mask mostly clear
    for (size_t i = t; i < t + 8; ++i) {
      if (mask[i] != 0) rows.push_back(i);
    }
  }
  for (; t < n; ++t) {
    if (mask[t] != 0) rows.push_back(t);
  }
  return rows;
}

}  // namespace

uint64_t Execute(const CountQuery& query, const Database& db) {
  const relation::Relation& rel = db.Get(query.table);
  std::vector<Predicate> preds = Compile(rel, query.where);
  relation::AttrSet attrs;
  for (const auto& name : query.columns) {
    const int idx = ColumnIndex(rel, name);
    attrs.Add(idx);
    // SQL semantics: COUNT(DISTINCT) skips rows with a NULL in any
    // counted column (an IS NOT NULL predicate).
    const relation::Column& col = rel.column(idx);
    if (col.has_nulls()) {
      preds.push_back({col.codes().data(), false, relation::kNullCode, false});
    }
  }
  std::vector<uint8_t> buf;
  const uint8_t* mask = RowMask(rel, preds, buf);
  const size_t n = rel.tuple_count();
  if (!query.distinct) {
    return mask == nullptr ? n : n - std::count(mask, mask + n, 0);
  }
  query::RefineScratch scratch;
  return query::GroupCountBy(rel, attrs, mask, scratch);
}

uint64_t Execute(const InsertStatement& insert, Database& db) {
  relation::Relation& rel = db.GetMutable(insert.table);
  const relation::Schema& schema = rel.schema();

  // Coerce typeless numeric literals: an integer literal targeting a
  // double column becomes a double (the reverse is rejected — silently
  // truncating 1.5 into an int column would corrupt data). All other
  // validation is delegated to AppendRows, whose all-or-nothing contract
  // keeps the relation unchanged when any row is bad. The statement is
  // only copied when the schema can actually trigger a coercion.
  bool has_double_column = false;
  for (int i = 0; i < schema.size(); ++i) {
    has_double_column |= schema.attr(i).type == relation::DataType::kDouble;
  }
  if (!has_double_column) {
    rel.AppendRows(insert.rows);
    return insert.rows.size();
  }
  std::vector<std::vector<relation::Value>> rows = insert.rows;
  for (auto& row : rows) {
    for (size_t i = 0; i < row.size() && i < static_cast<size_t>(schema.size());
         ++i) {
      row[i] = Coerce(std::move(row[i]), schema.attr(static_cast<int>(i)).type);
    }
  }
  rel.AppendRows(rows);
  return rows.size();
}

uint64_t Execute(const DeleteStatement& del, Database& db) {
  relation::Relation& rel = db.GetMutable(del.table);
  // Condition compilation throws on unknown columns before any mutation.
  const std::vector<size_t> rows = MatchingRows(rel, del.where);
  for (size_t row : rows) rel.DeleteRow(row);
  return rows.size();
}

uint64_t Execute(const UpdateStatement& update, Database& db) {
  relation::Relation& rel = db.GetMutable(update.table);
  const relation::Schema& schema = rel.schema();

  // Validate every assignment BEFORE any mutation: a failed UPDATE must
  // leave the relation untouched. Integer literals coerce to double
  // columns (SQL numeric literals are typeless, matching INSERT); a
  // double into an int column is rejected — silent truncation would
  // corrupt data.
  std::vector<std::pair<int, relation::Value>> sets;
  sets.reserve(update.assignments.size());
  for (const auto& a : update.assignments) {
    const int idx = ColumnIndex(rel, a.column);
    const relation::DataType type = schema.attr(idx).type;
    relation::Value v = Coerce(a.value, type);
    if (!v.is_null() && !v.MatchesType(type)) {
      throw std::invalid_argument(
          "UPDATE: value " + v.ToString() + " does not match column '" +
          a.column + "' of type " + relation::DataTypeName(type));
    }
    sets.emplace_back(idx, std::move(v));
  }

  // Match against the pre-statement row set, then mutate in physical row
  // order: delete the old row, append the derived one. Appended rows land
  // past the snapshot bound, so they are never re-matched — UPDATE is
  // deterministic and terminates even when the assignment re-satisfies
  // the WHERE clause.
  const std::vector<size_t> rows = MatchingRows(rel, update.where);
  std::vector<relation::Value> derived;
  for (size_t row : rows) {
    derived.clear();
    derived.reserve(static_cast<size_t>(rel.attr_count()));
    for (int a = 0; a < rel.attr_count(); ++a) derived.push_back(rel.Get(row, a));
    for (const auto& [idx, v] : sets) derived[static_cast<size_t>(idx)] = v;
    rel.DeleteRow(row);
    rel.AppendRow(derived);
  }
  return rows.size();
}

uint64_t Execute(const CreateTableStatement& create, Database& db) {
  // Schema's constructor rejects duplicate column names; AddRelation
  // rejects duplicate table names.
  db.AddRelation(
      relation::Relation(create.table, relation::Schema(create.attrs)));
  return 0;
}

uint64_t Execute(const DeclareFdStatement& declare, Database& db) {
  const relation::Relation& rel = db.Get(declare.table);
  // Resolve throws on unknown columns; the Fd constructor rejects
  // overlapping sides and an empty consequent.
  fd::Fd fd(rel.schema().Resolve(declare.lhs), rel.schema().Resolve(declare.rhs));
  db.DeclareFd(declare.table, std::move(fd));
  return 0;
}

std::string Execute(const ExplainRepairStatement& explain,
                    const Database& db) {
  const relation::Relation& rel = db.Get(explain.table);
  fd::Fd fd(rel.schema().Resolve(explain.lhs),
            rel.schema().Resolve(explain.rhs));
  return fd::DescribePlan(fd::PlanRepair(rel, fd), rel.schema());
}

uint64_t Execute(const Statement& stmt, Database& db) {
  if (const auto* q = std::get_if<CountQuery>(&stmt)) {
    return Execute(*q, static_cast<const Database&>(db));
  }
  if (const auto* ins = std::get_if<InsertStatement>(&stmt)) {
    return Execute(*ins, db);
  }
  if (const auto* del = std::get_if<DeleteStatement>(&stmt)) {
    return Execute(*del, db);
  }
  if (const auto* upd = std::get_if<UpdateStatement>(&stmt)) {
    return Execute(*upd, db);
  }
  if (const auto* create = std::get_if<CreateTableStatement>(&stmt)) {
    return Execute(*create, db);
  }
  if (const auto* declare = std::get_if<DeclareFdStatement>(&stmt)) {
    return Execute(*declare, db);
  }
  if (const auto* explain = std::get_if<ExplainRepairStatement>(&stmt)) {
    // The plan text is discarded in this overload (callers wanting it use
    // the ExplainRepairStatement overload directly); executing it here
    // still validates the FD against the catalog.
    Execute(*explain, static_cast<const Database&>(db));
    return 0;
  }
  // CHECKPOINT / SHUTDOWN / SUBSCRIBE DRIFT need a server session: they
  // act on the serving process (durability, lifecycle, push channels),
  // not on catalog contents.
  throw std::invalid_argument(
      "this statement requires a server session (see server::Service)");
}

uint64_t ExecuteSql(const std::string& text, const Database& db) {
  return Execute(Parse(text), db);
}

uint64_t ExecuteSql(const std::string& text, Database& db) {
  return Execute(ParseStatement(text), db);
}

}  // namespace fdevolve::sql
