// In-memory, dictionary-encoded, column-oriented relation instance.
//
// The FD algorithms consume only two primitives from this layer:
//   * per-tuple dictionary codes for each column, and
//   * per-column NULL counts (FDs may not involve NULL-able attributes).
// Dictionary encoding at build time makes every downstream distinct-count a
// pure integer computation. Each column also keeps live per-code counts,
// so column statistics cost O(dictionary), not a scan of the rows.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "relation/schema.h"
#include "relation/value.h"

namespace fdevolve::relation {

/// Sentinel dictionary code for NULL cells.
inline constexpr uint32_t kNullCode = std::numeric_limits<uint32_t>::max();

/// One dictionary-encoded column.
///
/// Beside its codes and dictionary, a column maintains live statistics
/// over the rows its relation has not deleted: the occurrence count of
/// every code, the NULL count, the number of codes still occurring, and
/// the summed encoded width of their values (string payload bytes, 8 per
/// numeric value). Append counts its row, Relation::DeleteRow uncounts
/// the deleted row, and Compact and FromEncoded rebuild the counts from
/// the codes. They are derived state: snapshots do not store them.
class Column {
 public:
  explicit Column(DataType type);

  DataType type() const { return type_; }
  size_t size() const { return codes_.size(); }

  /// NULL cells among all physical rows, dead ones included — what the
  /// snapshot layer persists, and what the kernels size their NULL slot
  /// by (dead rows' codes still pass through it).
  size_t null_count() const { return null_count_; }
  bool has_nulls() const { return null_count_ > 0; }

  /// Number of dictionary entries: distinct non-NULL values over all
  /// physical rows (a value only dead rows hold keeps its code).
  size_t dict_size() const { return dict_.size(); }

  /// Live occurrence count of every code: `live_counts()[c]` rows not
  /// deleted hold code c (0 once every row holding it is deleted).
  const std::vector<uint32_t>& live_counts() const { return counts_; }

  /// NULL cells among live rows.
  size_t live_null_count() const { return live_nulls_; }

  /// Codes with a nonzero live count: distinct non-NULL live values.
  size_t live_distinct_count() const { return live_distinct_; }

  /// Summed encoded width in bytes of the distinct live values.
  uint64_t live_width() const { return live_width_; }

  /// Dictionary code of row `t` (kNullCode for NULL).
  uint32_t code(size_t t) const { return codes_[t]; }
  const std::vector<uint32_t>& codes() const { return codes_; }

  /// Value behind a dictionary code; kNullCode maps back to NULL.
  const Value& DictValue(uint32_t code) const;

  /// Dictionary values in code order (code `c` is `dict_values()[c]`).
  /// This plus codes() is the column's entire encoded state — what the
  /// snapshot layer persists.
  const std::vector<Value>& dict_values() const { return dict_; }

  /// Rebuilds a column directly at the encoded layer — the snapshot load
  /// path, which must not re-dictionary-encode per cell. Validates that
  /// every dictionary value matches `type`, that every code is either
  /// < dict.size() or kNullCode, that the kNullCode count equals
  /// `null_count`, and that some row holds every dictionary value (read
  /// off the live counts the pass over the codes builds); building the
  /// value→code index checks that the values are distinct (NaN, equal to
  /// nothing, may repeat, as Append lets it). Throws
  /// std::invalid_argument otherwise.
  static Column FromEncoded(DataType type, std::vector<Value> dict,
                            std::vector<uint32_t> codes, size_t null_count);

  /// Appends a value; throws std::invalid_argument on type mismatch.
  void Append(const Value& v);

  /// Dictionary code of `v`, or kNullCode when `v` is NULL, of another
  /// type, or absent (NaN always is: it equals nothing). One probe of the
  /// value→code index, which every mutation keeps current; const and
  /// read-only, so readers holding a shared lock may call it.
  uint32_t FindCode(const Value& v) const;

  /// Cell accessor (decodes through the dictionary).
  Value Get(size_t t) const;

  /// Drops every row whose `live` byte is 0 and re-encodes: surviving
  /// codes are remapped to dense first-appearance order over the kept
  /// rows and unreferenced dictionary values are dropped, so the result
  /// is bit-identical to a column built by appending the kept values in
  /// order (Relation::Compact's rebuilt-equivalence guarantee rests on
  /// this). The live counts are recounted over the kept rows.
  /// `live.size()` must equal size().
  void Compact(const std::vector<uint8_t>& live);

 private:
  friend class Relation;

  /// Counts one more live row holding code `c` (kNullCode for NULL).
  void Count(uint32_t c);

  /// Uncounts physical row `t`, which its relation just deleted.
  void Uncount(size_t t);

  /// Slot of `v` in index_: the one holding its code, or the empty slot
  /// where the probe for it ended.
  size_t Probe(const Value& v) const;

  /// Sizes index_ for dict_ and inserts every code in order; throws
  /// std::invalid_argument when two dictionary values are equal.
  void BuildIndex();

  DataType type_;
  std::vector<uint32_t> codes_;
  std::vector<Value> dict_;
  /// Value→code index over dict_: open addressing with linear probing
  /// from Value::Hash, a power-of-two slot count (at least 16) that keeps
  /// it at most half full, and kNullCode marking an empty slot. Append
  /// grows it; Compact and FromEncoded rebuild it.
  std::vector<uint32_t> index_;
  size_t null_count_ = 0;
  /// Live statistics, one count per dictionary code (see the class
  /// comment).
  std::vector<uint32_t> counts_;
  size_t live_nulls_ = 0;
  size_t live_distinct_ = 0;
  uint64_t live_width_ = 0;
  static const Value kNullValue;
};

/// A relation instance: schema + equally sized columns, with deletion
/// support via tombstones.
///
/// The storage itself stays append-shaped: physical rows and dictionary
/// codes are never reassigned once handed out, so group ids derived from
/// row order remain append-stable. DeleteRow() only marks a row dead in a
/// tombstone bitmap and records it in an ordered deletion log; the bytes
/// of the row stay in place until Compact() rewrites the relation.
///
/// Downstream caches therefore track three things, not one:
///
///   * `version()` — the physical row watermark (== tuple_count()). It
///     grows by one per append and only ever moves backwards at a
///     Compact(). Rows [0, version()) have immutable codes between
///     compactions.
///   * `deletion_log()` — the dead row ids in deletion order. Between
///     compactions it only grows: a cache that has folded fewer entries
///     must fold the rest before trusting any live-row-derived result.
///   * `compactions()` — bumped by every Compact(), which reassigns row
///     ids and codes wholesale (and clears the deletion log): a cache that
///     saw fewer compactions rebuilds.
///
/// A consumer that diffs only `version()` (the historical append-only
/// contract) would silently keep counting deleted rows. Tombstone-unaware
/// scans must call RequireNoTombstones() at entry so that misuse is a
/// hard error instead of silent corruption; incremental caches
/// (query::DistinctEvaluator) track all three.
class Relation {
 public:
  Relation(std::string name, Schema schema);

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  size_t tuple_count() const { return tuple_count_; }
  int attr_count() const { return schema_.size(); }

  /// Physical row watermark: the number of physical rows currently
  /// stored, dead ones included. NOT the number of tuples ever appended
  /// once deletions exist — see `deletion_log()` and the class comment
  /// for the cache-invalidation contract. Shrinks only at Compact().
  size_t version() const { return tuple_count_; }

  const Column& column(int i) const { return columns_.at(static_cast<size_t>(i)); }

  // --- Tombstone surface -------------------------------------------------

  /// True iff physical row `t` has not been deleted. `t` must be
  /// < tuple_count() (unchecked; use Get for checked access).
  bool is_live(size_t t) const { return live_.empty() || live_[t] != 0; }

  /// Number of live (non-deleted) rows.
  size_t live_count() const { return tuple_count_ - dead_count_; }

  /// Number of tombstoned rows awaiting compaction.
  size_t dead_count() const { return dead_count_; }

  bool has_tombstones() const { return dead_count_ > 0; }

  /// Number of Compact() calls over the relation's lifetime — the
  /// incarnation counter caches compare to detect that physical row ids
  /// and codes were reassigned wholesale.
  size_t compactions() const { return compactions_; }

  /// Rows ever appended / deleted, monotone across compactions (unlike
  /// tuple_count()). The monitor's check cadence counts mutations through
  /// these so a compaction cannot make its interval arithmetic underflow.
  size_t appends_ever() const { return appends_ever_; }
  size_t deletes_ever() const { return deletes_ever_; }

  /// Physical ids of tombstoned rows in deletion order — the delta an
  /// incremental cache folds in (cleared by Compact()).
  const std::vector<uint32_t>& deletion_log() const { return deletion_log_; }

  /// Raw tombstone bitmap, one byte per physical row; empty means every
  /// row is live. Hot-loop access for the query layer's live-aware count
  /// passes (is_live() is the per-row form).
  const std::vector<uint8_t>& live_bitmap() const { return live_; }

  /// Tombstones physical row `t` and decrements every column's live count
  /// of the row's code (a code whose count reaches 0 leaves the column's
  /// live distinct count and width). Throws std::out_of_range if `t` is
  /// not a physical row, std::invalid_argument if it is already dead; a
  /// throwing call changes nothing. O(attributes) amortized (the bitmap
  /// materializes on the first delete).
  void DeleteRow(size_t t);

  /// Rewrites the relation to exactly its live rows: dead rows are
  /// dropped, surviving rows renumbered in order, and every column's
  /// dictionary re-encoded to first-appearance order over the survivors.
  ///
  /// Rebuilt-equivalence guarantee: the compacted relation is
  /// bit-identical at the encoded layer (dictionary order, codes, null
  /// counts, watermark) to a fresh relation built by AppendRow-ing the
  /// live rows in physical order. Clears the tombstone state and the
  /// deletion log, bumps compactions(); appends_ever()/deletes_ever()
  /// keep their lifetime values. Returns the number of rows removed.
  size_t Compact();

  /// A fresh relation holding exactly this relation's live rows (the
  /// compacted form), leaving this relation untouched. What tombstone-
  /// unaware consumers (repair search, discovery) are handed.
  Relation CompactedCopy() const;

  /// Appends one tuple; `row` arity must match the schema.
  ///
  /// Strong exception guarantee: arity and every cell type are validated
  /// against the schema before any column is touched, so a throwing append
  /// leaves the relation exactly as it was (no short rows). (The only
  /// theoretical exception is dictionary-code exhaustion at 2^32 distinct
  /// values per column — unreachable in practice, since tuple ids are
  /// 32-bit throughout the query layer.)
  void AppendRow(const std::vector<Value>& row);

  /// Appends a batch of tuples with all-or-nothing semantics: every row is
  /// validated (arity + cell types) before the first one is appended, so a
  /// bad row anywhere in the batch leaves the relation unchanged.
  void AppendRows(const std::vector<std::vector<Value>>& rows);

  /// Cell accessor.
  Value Get(size_t tuple, int attr) const { return column(attr).Get(tuple); }

  /// Attributes whose columns hold no NULL in a live row — the candidate
  /// pool the paper allows for antecedent extension (§6.2.1).
  AttrSet NonNullAttrs() const;

  /// Rough payload size in bytes (codes + dictionaries); used by the
  /// Figure 3c "table dimension" axis.
  size_t EstimatedBytes() const;

  /// Rebuilds a relation from per-column encoded state (the snapshot load
  /// path). `columns` must match the schema positionally — one column per
  /// attribute, same type, equal lengths; throws std::invalid_argument
  /// otherwise. The watermark becomes the common column length.
  static Relation FromEncoded(std::string name, Schema schema,
                              std::vector<Column> columns);

  /// Restores the lifetime mutation counters after a snapshot load, so
  /// consumers keyed to mutation history (monitors via appends_ever() +
  /// deletes_ever(), reservoir samplers via compactions()) resume against
  /// the same watermarks they checkpointed. Throws std::invalid_argument
  /// when the counters are impossible for this relation's current
  /// physical state.
  void RestoreLifetimeCounters(size_t appends_ever, size_t deletes_ever,
                               size_t compactions);

 private:
  /// Throws std::invalid_argument unless `row` matches the schema (arity
  /// and per-cell type); performs no mutation.
  void ValidateRow(const std::vector<Value>& row) const;

  std::string name_;
  Schema schema_;
  std::vector<Column> columns_;
  size_t tuple_count_ = 0;

  /// Tombstone bitmap, one byte per physical row; empty means all live
  /// (the append-only fast path never materializes it).
  std::vector<uint8_t> live_;
  std::vector<uint32_t> deletion_log_;  ///< dead row ids, deletion order
  size_t dead_count_ = 0;
  size_t compactions_ = 0;
  size_t appends_ever_ = 0;
  size_t deletes_ever_ = 0;
};

/// Hard-error guard for tombstone-unaware consumers: throws
/// std::logic_error naming `where` if `rel` carries tombstones. Scans
/// that walk physical rows without consulting is_live() would silently
/// include deleted tuples — callers pass such relations through
/// Relation::CompactedCopy() (or Compact()) first.
void RequireNoTombstones(const Relation& rel, const char* where);

/// Fluent builder for tests and generators.
class RelationBuilder {
 public:
  RelationBuilder(std::string name, Schema schema)
      : rel_(std::move(name), std::move(schema)) {}

  RelationBuilder& Row(std::vector<Value> row) {
    rel_.AppendRow(row);
    return *this;
  }

  Relation Build() { return std::move(rel_); }

 private:
  Relation rel_;
};

}  // namespace fdevolve::relation
