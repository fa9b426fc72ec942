#include "relation/relation.h"

#include <stdexcept>
#include <utility>

namespace fdevolve::relation {

namespace {

/// Encoded width of a non-NULL value: its string payload, or 8 bytes.
uint64_t EncodedWidth(const Value& v) {
  return v.is_string() ? v.as_string().size() : 8;
}

}  // namespace

const Value Column::kNullValue = Value::Null();

Column::Column(DataType type) : type_(type) { BuildIndex(); }

void Column::Count(uint32_t c) {
  if (c == kNullCode) {
    ++live_nulls_;
  } else if (counts_[c]++ == 0) {
    ++live_distinct_;
    live_width_ += EncodedWidth(dict_[c]);
  }
}

void Column::Uncount(size_t t) {
  const uint32_t c = codes_[t];
  if (c == kNullCode) {
    --live_nulls_;
  } else if (--counts_[c] == 0) {
    --live_distinct_;
    live_width_ -= EncodedWidth(dict_[c]);
  }
}

const Value& Column::DictValue(uint32_t code) const {
  if (code == kNullCode) return kNullValue;
  return dict_.at(code);
}

size_t Column::Probe(const Value& v) const {
  const size_t mask = index_.size() - 1;
  size_t slot = static_cast<size_t>(v.Hash()) & mask;
  while (index_[slot] != kNullCode && !(dict_[index_[slot]] == v)) {
    slot = (slot + 1) & mask;
  }
  return slot;
}

uint32_t Column::FindCode(const Value& v) const { return index_[Probe(v)]; }

void Column::BuildIndex() {
  size_t slots = 16;
  while (slots < 2 * dict_.size()) slots *= 2;
  index_.assign(slots, kNullCode);
  for (size_t c = 0; c < dict_.size(); ++c) {
    uint32_t& slot = index_[Probe(dict_[c])];
    if (slot != kNullCode) {
      throw std::invalid_argument("Column: duplicate dictionary value " +
                                  dict_[c].ToString());
    }
    slot = static_cast<uint32_t>(c);
  }
}

void Column::Append(const Value& v) {
  if (v.is_null()) {
    codes_.push_back(kNullCode);
    ++null_count_;
    ++live_nulls_;
    return;
  }
  if (!v.MatchesType(type_)) {
    throw std::invalid_argument("Column: value type mismatch, expected " +
                                DataTypeName(type_) + " got " + v.ToString());
  }
  const size_t slot = Probe(v);
  uint32_t code = index_[slot];
  if (code == kNullCode) {
    code = static_cast<uint32_t>(dict_.size());
    if (code == kNullCode) {
      throw std::length_error("Column: dictionary overflow");
    }
    dict_.push_back(v);
    counts_.push_back(0);
    if (2 * dict_.size() > index_.size()) {
      BuildIndex();
    } else {
      index_[slot] = code;
    }
  }
  codes_.push_back(code);
  Count(code);
}

Value Column::Get(size_t t) const {
  uint32_t c = codes_.at(t);
  return c == kNullCode ? Value::Null() : dict_.at(c);
}

void Column::Compact(const std::vector<uint8_t>& live) {
  if (live.size() != codes_.size()) {
    throw std::invalid_argument("Column::Compact: bitmap size mismatch");
  }
  // Remap surviving codes to first-appearance order over the kept rows —
  // exactly the codes Append would assign when fed the kept values in
  // order — and drop dictionary entries no survivor references. Every
  // kept entry occurs, so the recount only sums widths at first
  // appearance.
  std::vector<uint32_t> remap(dict_.size(), kNullCode);
  std::vector<Value> dict;
  std::vector<uint32_t> codes;
  std::vector<uint32_t> counts;
  size_t nulls = 0;
  uint64_t width = 0;
  for (size_t t = 0; t < codes_.size(); ++t) {
    if (live[t] == 0) continue;
    const uint32_t c = codes_[t];
    if (c == kNullCode) {
      codes.push_back(kNullCode);
      ++nulls;
      continue;
    }
    uint32_t& m = remap[c];
    if (m == kNullCode) {
      m = static_cast<uint32_t>(dict.size());
      dict.push_back(dict_[c]);
      counts.push_back(0);
      width += EncodedWidth(dict_[c]);
    }
    ++counts[m];
    codes.push_back(m);
  }
  dict_ = std::move(dict);
  codes_ = std::move(codes);
  counts_ = std::move(counts);
  null_count_ = nulls;
  live_nulls_ = nulls;
  live_distinct_ = dict_.size();
  live_width_ = width;
  BuildIndex();
}

Column Column::FromEncoded(DataType type, std::vector<Value> dict,
                           std::vector<uint32_t> codes, size_t null_count) {
  Column col(type);
  if (dict.size() >= kNullCode) {
    throw std::invalid_argument("Column::FromEncoded: dictionary too large");
  }
  for (const Value& v : dict) {
    if (v.is_null() || !v.MatchesType(type)) {
      throw std::invalid_argument(
          "Column::FromEncoded: dictionary value type mismatch, expected " +
          DataTypeName(type) + " got " + v.ToString());
    }
  }
  // The range check and the live counts share one pass over the codes;
  // every loaded row is live until the relation replays its deletions.
  col.dict_ = std::move(dict);
  col.counts_.assign(col.dict_.size(), 0);
  for (uint32_t c : codes) {
    if (c != kNullCode && c >= col.dict_.size()) {
      throw std::invalid_argument(
          "Column::FromEncoded: code " + std::to_string(c) +
          " out of dictionary range " + std::to_string(col.dict_.size()));
    }
    col.Count(c);
  }
  if (col.live_nulls_ != null_count) {
    throw std::invalid_argument(
        "Column::FromEncoded: null count mismatch (codes have " +
        std::to_string(col.live_nulls_) + ", declared " +
        std::to_string(null_count) + ")");
  }
  // Every writer's dictionary holds only values some physical row holds
  // (Append interns a value with its row, and Compact drops the values no
  // survivor holds). Readers rely on it: an unmasked single-column
  // COUNT(DISTINCT ...) answers dict_size() plus the NULL slot.
  if (col.live_distinct_ != col.dict_.size()) {
    throw std::invalid_argument(
        "Column::FromEncoded: " +
        std::to_string(col.dict_.size() - col.live_distinct_) + " of " +
        std::to_string(col.dict_.size()) +
        " dictionary values are held by no row");
  }
  col.codes_ = std::move(codes);
  col.null_count_ = null_count;
  col.BuildIndex();  // throws on a duplicate dictionary value
  return col;
}

Relation::Relation(std::string name, Schema schema)
    : name_(std::move(name)), schema_(std::move(schema)) {
  columns_.reserve(static_cast<size_t>(schema_.size()));
  for (const auto& a : schema_.attrs()) columns_.emplace_back(a.type);
}

void Relation::ValidateRow(const std::vector<Value>& row) const {
  if (row.size() != static_cast<size_t>(schema_.size())) {
    throw std::invalid_argument("Relation::AppendRow: arity mismatch");
  }
  for (size_t i = 0; i < row.size(); ++i) {
    const Value& v = row[i];
    if (!v.is_null() && !v.MatchesType(columns_[i].type())) {
      throw std::invalid_argument(
          "Relation::AppendRow: value type mismatch in column '" +
          schema_.attr(static_cast<int>(i)).name + "', expected " +
          DataTypeName(columns_[i].type()) + " got " + v.ToString());
    }
  }
}

void Relation::AppendRow(const std::vector<Value>& row) {
  // Validate the whole row before touching any column: a mid-row type
  // mismatch must not leave columns with unequal lengths.
  ValidateRow(row);
  for (size_t i = 0; i < row.size(); ++i) {
    columns_[i].Append(row[i]);
  }
  ++tuple_count_;
  ++appends_ever_;
  if (!live_.empty()) live_.push_back(1);
}

void Relation::AppendRows(const std::vector<std::vector<Value>>& rows) {
  for (const auto& row : rows) ValidateRow(row);
  for (const auto& row : rows) {
    for (size_t i = 0; i < row.size(); ++i) {
      columns_[i].Append(row[i]);
    }
    ++tuple_count_;
    ++appends_ever_;
    if (!live_.empty()) live_.push_back(1);
  }
}

void Relation::DeleteRow(size_t t) {
  if (t >= tuple_count_) {
    throw std::out_of_range("Relation::DeleteRow: row " + std::to_string(t) +
                            " out of range " + std::to_string(tuple_count_));
  }
  if (live_.empty()) live_.assign(tuple_count_, 1);
  if (live_[t] == 0) {
    throw std::invalid_argument("Relation::DeleteRow: row " +
                                std::to_string(t) + " is already deleted");
  }
  // Allocate first: a throw here leaves the row live and every count as
  // it was.
  deletion_log_.push_back(static_cast<uint32_t>(t));
  live_[t] = 0;
  for (auto& col : columns_) col.Uncount(t);
  ++dead_count_;
  ++deletes_ever_;
}

size_t Relation::Compact() {
  const size_t removed = dead_count_;
  if (removed != 0) {
    for (auto& col : columns_) col.Compact(live_);
    tuple_count_ -= removed;
    live_.clear();
    deletion_log_.clear();
    dead_count_ = 0;
  }
  // The incarnation moves even for a no-op compaction: callers that
  // trigger Compact() deterministically (the server's policy) must see
  // identical counters on replay regardless of whether rows were dead.
  ++compactions_;
  return removed;
}

Relation Relation::CompactedCopy() const {
  Relation copy = *this;
  copy.Compact();
  // The copy is a fresh instance as far as consumers are concerned: its
  // lifetime counters restart at the compacted contents.
  copy.appends_ever_ = copy.tuple_count_;
  copy.deletes_ever_ = 0;
  copy.compactions_ = 0;
  return copy;
}

AttrSet Relation::NonNullAttrs() const {
  AttrSet s;
  for (int i = 0; i < attr_count(); ++i) {
    if (column(i).live_null_count() == 0) s.Add(i);
  }
  return s;
}

Relation Relation::FromEncoded(std::string name, Schema schema,
                               std::vector<Column> columns) {
  if (columns.size() != static_cast<size_t>(schema.size())) {
    throw std::invalid_argument(
        "Relation::FromEncoded: column count does not match schema");
  }
  size_t rows = columns.empty() ? 0 : columns.front().size();
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i].type() != schema.attr(static_cast<int>(i)).type) {
      throw std::invalid_argument(
          "Relation::FromEncoded: column type mismatch at attribute '" +
          schema.attr(static_cast<int>(i)).name + "'");
    }
    if (columns[i].size() != rows) {
      throw std::invalid_argument(
          "Relation::FromEncoded: columns have unequal lengths");
    }
  }
  Relation rel(std::move(name), std::move(schema));
  rel.columns_ = std::move(columns);
  rel.tuple_count_ = rows;
  rel.appends_ever_ = rows;
  return rel;
}

void Relation::RestoreLifetimeCounters(size_t appends_ever,
                                       size_t deletes_ever,
                                       size_t compactions) {
  // The watermark counts appends since the last compaction, so lifetime
  // appends can never be below it; same for deletes vs live tombstones.
  if (appends_ever < tuple_count_) {
    throw std::invalid_argument(
        "Relation::RestoreLifetimeCounters: appends_ever " +
        std::to_string(appends_ever) + " below the watermark " +
        std::to_string(tuple_count_));
  }
  if (deletes_ever < dead_count_) {
    throw std::invalid_argument(
        "Relation::RestoreLifetimeCounters: deletes_ever " +
        std::to_string(deletes_ever) + " below the tombstone count " +
        std::to_string(dead_count_));
  }
  appends_ever_ = appends_ever;
  deletes_ever_ = deletes_ever;
  compactions_ = compactions;
}

void RequireNoTombstones(const Relation& rel, const char* where) {
  if (rel.has_tombstones()) {
    throw std::logic_error(
        std::string(where) + ": relation '" + rel.name() + "' carries " +
        std::to_string(rel.dead_count()) +
        " tombstoned rows; this consumer scans physical rows and would "
        "include deleted tuples — compact the relation (or pass "
        "CompactedCopy()) first");
  }
}

size_t Relation::EstimatedBytes() const {
  size_t bytes = 0;
  for (const auto& col : columns_) {
    bytes += col.size() * sizeof(uint32_t);
    for (size_t c = 0; c < col.dict_size(); ++c) {
      const Value& v = col.DictValue(static_cast<uint32_t>(c));
      bytes += v.is_string() ? v.as_string().size() + 16 : 8;
    }
  }
  return bytes;
}

}  // namespace fdevolve::relation
