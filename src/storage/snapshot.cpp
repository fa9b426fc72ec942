#include "storage/snapshot.h"

#include <fstream>
#include <set>
#include <stdexcept>
#include <vector>

#include "util/binary_io.h"

namespace fdevolve::storage {
namespace {

using util::BinaryReader;
using util::BinaryWriter;

constexpr char kMagic[4] = {'F', 'D', 'E', 'V'};
constexpr size_t kHeaderSize = 4 + 4 + 4;  // magic + version + kind
constexpr size_t kTrailerSize = 8;         // FNV-1a checksum

/// Kinds 2 (database catalog), 3 (monitor checkpoint) and 5 (sampled
/// monitor checkpoint) are retired: never reused, and still named by
/// KindName so that loading an old file fails with an error that says what
/// the file is.
enum PayloadKind : uint32_t {
  kKindRelation = 1,
  kKindServer = 4,
};

const char* KindName(uint32_t kind) {
  switch (kind) {
    case kKindRelation:
      return "relation";
    case 2:
      return "database catalog (retired kind 2)";
    case 3:
      return "monitor checkpoint (retired kind 3)";
    case kKindServer:
      return "server state";
    case 5:
      return "sampled monitor checkpoint (retired kind 5)";
  }
  return "unknown";
}

uint8_t TypeTag(relation::DataType t) {
  switch (t) {
    case relation::DataType::kInt64:
      return 0;
    case relation::DataType::kDouble:
      return 1;
    case relation::DataType::kString:
      return 2;
  }
  throw std::logic_error("unreachable data type");
}

relation::DataType TypeFromTag(uint8_t tag) {
  switch (tag) {
    case 0:
      return relation::DataType::kInt64;
    case 1:
      return relation::DataType::kDouble;
    case 2:
      return relation::DataType::kString;
  }
  throw util::BinaryIoError("bad column type tag " + std::to_string(tag));
}

// --- Payload writers. Each Write*Payload appends the naked payload; the
// --- envelope (magic/version/kind + checksum trailer) is added by Seal.

void WriteAttrSet(BinaryWriter& w, const relation::AttrSet& s) {
  const auto idx = s.ToVector();
  w.U32(static_cast<uint32_t>(idx.size()));
  for (int i : idx) w.U32(static_cast<uint32_t>(i));
}

relation::AttrSet ReadAttrSet(BinaryReader& r) {
  uint32_t count = r.U32();
  relation::AttrSet s;
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t a = r.U32();
    if (a >= static_cast<uint32_t>(relation::AttrSet::kMaxAttrs)) {
      throw util::BinaryIoError("attribute index " + std::to_string(a) +
                                " out of range");
    }
    s.Add(static_cast<int>(a));
  }
  return s;
}

void WriteFd(BinaryWriter& w, const fd::Fd& f) {
  w.Str(f.label());
  WriteAttrSet(w, f.lhs());
  WriteAttrSet(w, f.rhs());
}

fd::Fd ReadFd(BinaryReader& r) {
  std::string label = r.Str();
  relation::AttrSet lhs = ReadAttrSet(r);
  relation::AttrSet rhs = ReadAttrSet(r);
  // Fd's constructor rejects overlapping sides / empty consequent; let its
  // std::invalid_argument surface as the load error.
  return fd::Fd(lhs, rhs, std::move(label));
}

void WriteMeasures(BinaryWriter& w, const fd::FdMeasures& m) {
  w.U64(m.distinct_x);
  w.U64(m.distinct_xy);
  w.U64(m.distinct_y);
  w.F64(m.confidence);
  w.I64(m.goodness);
  w.U8(m.exact ? 1 : 0);
}

fd::FdMeasures ReadMeasures(BinaryReader& r) {
  fd::FdMeasures m;
  m.distinct_x = r.U64();
  m.distinct_xy = r.U64();
  m.distinct_y = r.U64();
  m.confidence = r.F64();
  m.goodness = r.I64();
  m.exact = r.U8() != 0;
  return m;
}

void WriteRelationPayload(BinaryWriter& w, const relation::Relation& rel) {
  w.Str(rel.name());
  const relation::Schema& s = rel.schema();
  w.U32(static_cast<uint32_t>(s.size()));
  for (const auto& a : s.attrs()) {
    w.Str(a.name);
    w.U8(TypeTag(a.type));
  }
  w.U64(rel.tuple_count());
  for (int i = 0; i < s.size(); ++i) {
    const relation::Column& col = rel.column(i);
    w.U64(col.null_count());
    w.U64(col.dict_size());
    for (size_t c = 0; c < col.dict_size(); ++c) {
      const relation::Value& v = col.DictValue(static_cast<uint32_t>(c));
      switch (col.type()) {
        case relation::DataType::kInt64:
          w.I64(v.as_int());
          break;
        case relation::DataType::kDouble:
          w.F64(v.as_double());  // exact bits, not a decimal rendering
          break;
        case relation::DataType::kString:
          w.Str(v.as_string());
          break;
      }
    }
    w.U32Array(col.codes());
  }
  // Tombstone section: dead physical row ids in deletion order (empty
  // array for all-live relations — one u32 of overhead, no branch on read).
  w.U32Array(rel.deletion_log());
  // Lifetime-counter section: the mutation history watermarks the monitor
  // cadence (appends_ever + deletes_ever) and the reservoir samplers
  // (compactions) are keyed to.
  w.U64(rel.appends_ever());
  w.U64(rel.deletes_ever());
  w.U64(rel.compactions());
}

/// Reads the mutation history that follows a relation's rows. The
/// deletion log replays through DeleteRow, so the loaded relation's
/// tombstone bitmap, deletion log, and mutation counters are rebuilt the
/// same deterministic way the live writer built them; DeleteRow itself
/// rejects out-of-range and duplicate ids, so a corrupt log fails the load
/// instead of fabricating state. The lifetime counters follow;
/// RestoreLifetimeCounters throws std::invalid_argument on impossible
/// counters — the same corrupt-payload path FromEncoded's structural
/// checks take.
void ReadMutationHistory(BinaryReader& r, relation::Relation* rel) {
  for (uint32_t id : r.U32Array()) rel->DeleteRow(id);
  const uint64_t appends = r.U64();
  const uint64_t deletes = r.U64();
  const uint64_t compactions = r.U64();
  rel->RestoreLifetimeCounters(static_cast<size_t>(appends),
                               static_cast<size_t>(deletes),
                               static_cast<size_t>(compactions));
}

relation::Relation ReadRelationPayload(BinaryReader& r) {
  std::string name = r.Str();
  uint32_t attr_count = r.U32();
  std::vector<relation::Attribute> attrs;
  attrs.reserve(attr_count);
  for (uint32_t i = 0; i < attr_count; ++i) {
    relation::Attribute a;
    a.name = r.Str();
    a.type = TypeFromTag(r.U8());
    attrs.push_back(std::move(a));
  }
  relation::Schema schema(std::move(attrs));  // throws on duplicate names
  uint64_t tuples = r.U64();

  if (attr_count == 0) {
    // Degenerate but representable: a zero-attribute relation still has a
    // tuple count (AppendRow({}) increments it). FromEncoded derives the
    // count from the columns, so replay the appends instead — bounded, so
    // a crafted count cannot turn the load into a near-endless loop.
    if (tuples > (uint64_t{1} << 27)) {
      throw util::BinaryIoError("implausible zero-attribute tuple count " +
                                std::to_string(tuples));
    }
    relation::Relation rel(std::move(name), std::move(schema));
    for (uint64_t t = 0; t < tuples; ++t) rel.AppendRow({});
    ReadMutationHistory(r, &rel);
    return rel;
  }

  std::vector<relation::Column> columns;
  columns.reserve(attr_count);
  for (uint32_t i = 0; i < attr_count; ++i) {
    relation::DataType type = schema.attr(static_cast<int>(i)).type;
    uint64_t null_count = r.U64();
    uint64_t dict_size = r.U64();
    std::vector<relation::Value> dict;
    // Every dictionary entry occupies at least one payload byte, so a
    // corrupt dict_size larger than the remaining range fails here rather
    // than in a giant reserve.
    if (dict_size > r.remaining()) {
      throw util::BinaryIoError("dictionary size " +
                                std::to_string(dict_size) +
                                " exceeds remaining payload");
    }
    dict.reserve(static_cast<size_t>(dict_size));
    for (uint64_t c = 0; c < dict_size; ++c) {
      switch (type) {
        case relation::DataType::kInt64:
          dict.emplace_back(r.I64());
          break;
        case relation::DataType::kDouble:
          dict.emplace_back(r.F64());
          break;
        case relation::DataType::kString:
          dict.emplace_back(r.Str());
          break;
      }
    }
    std::vector<uint32_t> codes = r.U32Array();
    if (codes.size() != tuples) {
      throw util::BinaryIoError(
          "column '" + schema.attr(static_cast<int>(i)).name + "' has " +
          std::to_string(codes.size()) + " codes for " +
          std::to_string(tuples) + " tuples");
    }
    // FromEncoded re-validates code ranges, null counts, and that every
    // dictionary value is distinct and held by a row — the structural
    // invariants a checksum cannot see.
    columns.push_back(relation::Column::FromEncoded(
        type, std::move(dict), std::move(codes),
        static_cast<size_t>(null_count)));
  }
  relation::Relation rel = relation::Relation::FromEncoded(
      std::move(name), std::move(schema), std::move(columns));
  ReadMutationHistory(r, &rel);
  return rel;
}

// Monitored-FD list + drift log — the core of a server-state monitor
// entry.

void WriteFdsAndDrift(BinaryWriter& w, const std::vector<fd::MonitoredFd>& fds,
                      const std::vector<fd::DriftEvent>& drift_log) {
  w.U32(static_cast<uint32_t>(fds.size()));
  for (const auto& m : fds) {
    WriteFd(w, m.fd);
    WriteMeasures(w, m.measures);
    w.U8(m.was_exact_at_registration ? 1 : 0);
    w.U8(m.violated ? 1 : 0);
    w.U64(m.first_violation_at);
  }
  w.U32(static_cast<uint32_t>(drift_log.size()));
  for (const auto& ev : drift_log) {
    w.U64(ev.fd_index);
    w.U64(ev.tuple_count);
    WriteMeasures(w, ev.measures);
    w.U8(static_cast<uint8_t>(ev.kind));
    // Sampled-estimate fields: exact events write their defaults
    // (approx=0, degenerate intervals).
    w.U8(ev.approx ? 1 : 0);
    w.F64(ev.confidence_lo);
    w.F64(ev.confidence_hi);
    w.F64(ev.goodness_lo);
    w.F64(ev.goodness_hi);
  }
}

void ReadFdsAndDrift(BinaryReader& r, std::vector<fd::MonitoredFd>* fds,
                     std::vector<fd::DriftEvent>* drift_log) {
  uint32_t fd_count = r.U32();
  fds->reserve(fd_count);
  for (uint32_t i = 0; i < fd_count; ++i) {
    fd::MonitoredFd m;
    m.fd = ReadFd(r);
    m.measures = ReadMeasures(r);
    m.was_exact_at_registration = r.U8() != 0;
    m.violated = r.U8() != 0;
    m.first_violation_at = r.U64();
    fds->push_back(std::move(m));
  }
  uint32_t drift_count = r.U32();
  drift_log->reserve(drift_count);
  for (uint32_t i = 0; i < drift_count; ++i) {
    fd::DriftEvent ev;
    ev.fd_index = r.U64();
    if (ev.fd_index >= fd_count) {
      throw util::BinaryIoError("drift event references FD " +
                                std::to_string(ev.fd_index) + " of " +
                                std::to_string(fd_count));
    }
    ev.tuple_count = r.U64();
    ev.measures = ReadMeasures(r);
    const uint8_t kind = r.U8();
    if (kind > static_cast<uint8_t>(fd::DriftKind::kRecovered)) {
      throw util::BinaryIoError("bad drift kind " + std::to_string(kind));
    }
    ev.kind = static_cast<fd::DriftKind>(kind);
    const uint8_t approx = r.U8();
    if (approx > 1) {
      throw util::BinaryIoError("bad drift approx flag " +
                                std::to_string(approx));
    }
    ev.approx = approx != 0;
    ev.confidence_lo = r.F64();
    ev.confidence_hi = r.F64();
    ev.goodness_lo = r.F64();
    ev.goodness_hi = r.F64();
    drift_log->push_back(std::move(ev));
  }
}

void WriteMonitorStatePayload(BinaryWriter& w, const fd::MonitorState& s) {
  w.U64(s.check_interval);
  w.U64(s.inserts_since_check);
  w.U64(s.checks_run);
  w.U64(s.watermark);
  WriteFdsAndDrift(w, s.fds, s.drift_log);
}

fd::MonitorState ReadMonitorStatePayload(BinaryReader& r) {
  fd::MonitorState s;
  s.check_interval = static_cast<size_t>(r.U64());
  s.inserts_since_check = static_cast<size_t>(r.U64());
  s.checks_run = static_cast<size_t>(r.U64());
  s.watermark = static_cast<size_t>(r.U64());
  ReadFdsAndDrift(r, &s.fds, &s.drift_log);
  return s;
}

// Reservoir state — the sampler's full replay state. Structural
// validation against the paired relation happens in ReservoirSampler's
// restore constructor; here only self-consistency is checked.

void WriteReservoirState(BinaryWriter& w, const query::ReservoirState& s) {
  w.U64(s.capacity);
  w.U64(s.seed);
  w.U64(s.rng_state);
  w.U64(s.seen);
  w.U32Array(s.rows);
  w.U64(s.observed_version);
  w.U64(s.observed_compactions);
}

query::ReservoirState ReadReservoirState(BinaryReader& r) {
  query::ReservoirState s;
  s.capacity = r.U64();
  s.seed = r.U64();
  s.rng_state = r.U64();
  s.seen = r.U64();
  s.rows = r.U32Array();
  s.observed_version = r.U64();
  s.observed_compactions = r.U64();
  if (s.capacity == 0) {
    throw util::BinaryIoError("reservoir state with zero capacity");
  }
  if (s.rows.size() > s.capacity) {
    throw util::BinaryIoError(
        "reservoir state holds " + std::to_string(s.rows.size()) +
        " slots for capacity " + std::to_string(s.capacity));
  }
  return s;
}

// The catalog section of the server payload (tables + declared FDs): the
// server payload is exactly "catalog then monitors".

void WriteDatabasePayload(BinaryWriter& w, const sql::Database& db) {
  const auto tables = db.TableNames();
  w.U32(static_cast<uint32_t>(tables.size()));
  for (const auto& name : tables) WriteRelationPayload(w, db.Get(name));
  const auto fds = db.Fds();
  w.U32(static_cast<uint32_t>(fds.size()));
  for (const auto& d : fds) {
    w.Str(d.table);
    WriteFd(w, d.fd);
  }
}

void ReadDatabasePayload(BinaryReader& r, sql::Database* db) {
  uint32_t table_count = r.U32();
  for (uint32_t i = 0; i < table_count; ++i) {
    db->AddRelation(ReadRelationPayload(r));
  }
  uint32_t fd_count = r.U32();
  for (uint32_t i = 0; i < fd_count; ++i) {
    std::string table = r.Str();
    // DeclareFd validates table existence and schema bounds.
    db->DeclareFd(table, ReadFd(r));
  }
}

// --- Envelope.

std::string Seal(BinaryWriter&& w) {
  w.U64(w.Checksum());
  return w.buffer();
}

BinaryWriter OpenWriter(uint32_t kind) {
  BinaryWriter w;
  w.Bytes(kMagic, sizeof(kMagic));
  w.U32(kFormatVersion);
  w.U32(kind);
  return w;
}

/// Verifies the envelope and returns the payload range — or fills
/// `error`. `not_snapshot` (optional) is set when the input lacks the
/// magic entirely — the structured "try another format" signal.
std::optional<std::string_view> OpenEnvelope(std::string_view bytes,
                                             uint32_t expected_kind,
                                             std::string* error,
                                             bool* not_snapshot = nullptr) {
  if (bytes.size() < kHeaderSize + kTrailerSize) {
    if (error) *error = "not an FDEV snapshot (file too small)";
    if (not_snapshot) *not_snapshot = true;
    return std::nullopt;
  }
  // Magic first (so a non-snapshot file is reported as such, letting
  // callers sniff the format), then the checksum: it subsumes most
  // corruption, and everything after it can trust the byte values (the
  // parse-level bounds checks remain as defense in depth).
  if (bytes.substr(0, 4) != std::string_view(kMagic, 4)) {
    if (error) *error = "not an FDEV snapshot (bad magic)";
    if (not_snapshot) *not_snapshot = true;
    return std::nullopt;
  }
  BinaryReader trailer(bytes.substr(bytes.size() - kTrailerSize));
  const uint64_t stored = trailer.U64();
  const uint64_t computed =
      util::Checksum64(bytes.data(), bytes.size() - kTrailerSize);
  if (stored != computed) {
    if (error) *error = "checksum mismatch (truncated or corrupt snapshot)";
    return std::nullopt;
  }
  BinaryReader header(bytes.substr(4));
  const uint32_t version = header.U32();
  if (version < kMinFormatVersion || version > kFormatVersion) {
    if (error) {
      *error = "unsupported snapshot version " + std::to_string(version) +
               " (this build reads " + std::to_string(kMinFormatVersion) +
               ".." + std::to_string(kFormatVersion) + ")";
    }
    return std::nullopt;
  }
  const uint32_t kind = header.U32();
  if (kind != expected_kind) {
    if (error) {
      *error = std::string("snapshot kind mismatch: expected ") +
               KindName(expected_kind) + ", found " + KindName(kind);
    }
    return std::nullopt;
  }
  return bytes.substr(kHeaderSize,
                      bytes.size() - kHeaderSize - kTrailerSize);
}

// --- File helpers.

std::optional<std::string> ReadFileBytes(const std::string& path,
                                         std::string* error) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    if (error) *error = "cannot open '" + path + "'";
    return std::nullopt;
  }
  // One bulk read at the known size: an istreambuf_iterator loop costs a
  // virtual call per byte, which alone would dwarf the parse time.
  const std::streamoff size = in.tellg();
  in.seekg(0);
  std::string bytes(static_cast<size_t>(size), '\0');
  if (size > 0) in.read(bytes.data(), size);
  if (!in || in.gcount() != size) {
    if (error) *error = "I/O error reading '" + path + "'";
    return std::nullopt;
  }
  return bytes;
}

bool WriteFileBytes(const std::string& bytes, const std::string& path,
                    std::string* error) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    if (error) *error = "cannot open '" + path + "' for writing";
    return false;
  }
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  // Flush before checking: a disk-full error surfacing at flush time must
  // fail the save, not report success (same audit as WriteCsvFile).
  out.flush();
  if (!out.good()) {
    if (error) *error = "I/O error writing '" + path + "'";
    return false;
  }
  return true;
}

}  // namespace

std::string SerializeRelation(const relation::Relation& rel) {
  BinaryWriter w = OpenWriter(kKindRelation);
  WriteRelationPayload(w, rel);
  return Seal(std::move(w));
}

RelationSnapshotResult DeserializeRelation(std::string_view bytes) {
  RelationSnapshotResult result;
  auto payload = OpenEnvelope(bytes, kKindRelation, &result.error,
                              &result.not_a_snapshot);
  if (!payload) return result;
  try {
    BinaryReader r(*payload);
    relation::Relation rel = ReadRelationPayload(r);
    if (!r.AtEnd()) {
      result.error = "trailing bytes after relation payload";
      return result;
    }
    result.relation.emplace(std::move(rel));
  } catch (const std::exception& e) {
    result.error = std::string("corrupt relation snapshot: ") + e.what();
  }
  return result;
}

std::string SerializeServerState(
    const sql::Database& db, const std::vector<ServerMonitorState>& monitors,
    const std::vector<ServerMonitorState>& sampled) {
  BinaryWriter w = OpenWriter(kKindServer);
  WriteDatabasePayload(w, db);
  // The exact section, then the sampled section (one u32 of overhead when
  // empty), whose entries additionally carry their reservoir.
  for (const auto* section : {&monitors, &sampled}) {
    const bool is_sampled = section == &sampled;
    w.U32(static_cast<uint32_t>(section->size()));
    for (const auto& m : *section) {
      if (m.state.reservoir.has_value() != is_sampled) {
        throw std::invalid_argument(
            "monitor state for '" + m.table + "' " +
            (is_sampled ? "has no reservoir but is in the sampled section"
                        : "has a reservoir but is in the exact section"));
      }
      w.Str(m.table);
      WriteMonitorStatePayload(w, m.state);
      if (is_sampled) WriteReservoirState(w, *m.state.reservoir);
    }
  }
  return Seal(std::move(w));
}

bool DeserializeServerState(std::string_view bytes, sql::Database* db,
                            std::vector<ServerMonitorState>* monitors,
                            std::string* error,
                            std::vector<ServerMonitorState>* sampled) {
  auto payload = OpenEnvelope(bytes, kKindServer, error);
  if (!payload) return false;
  try {
    BinaryReader r(*payload);
    ReadDatabasePayload(r, db);
    for (int section = 0; section < 2; ++section) {
      const bool is_sampled = section == 1;
      const std::string what =
          is_sampled ? "sampled monitor state" : "monitor state";
      std::vector<ServerMonitorState>* out = is_sampled ? sampled : monitors;
      const uint32_t count = r.U32();
      if (count > 0 && out == nullptr) {
        throw util::BinaryIoError(
            "snapshot carries sampled monitors but the caller cannot "
            "restore them");
      }
      std::set<std::string> tables;
      for (uint32_t i = 0; i < count; ++i) {
        ServerMonitorState m;
        m.table = r.Str();
        m.state = ReadMonitorStatePayload(r);
        if (is_sampled) m.state.reservoir = ReadReservoirState(r);
        if (!db->Has(m.table)) {
          throw util::BinaryIoError(what + " references unknown table '" +
                                    m.table + "'");
        }
        if (!tables.insert(m.table).second) {
          throw util::BinaryIoError("two monitor states for table '" +
                                    m.table + "'");
        }
        // The restore constructor re-checks this too, but failing at load
        // time pins the blame on the file rather than on server wiring.
        if (m.state.watermark != db->Get(m.table).version()) {
          throw util::BinaryIoError(
              what + " for '" + m.table + "' captured at watermark " +
              std::to_string(m.state.watermark) + " but the table holds " +
              std::to_string(db->Get(m.table).version()) + " tuples");
        }
        out->push_back(std::move(m));
      }
    }
    if (!r.AtEnd()) {
      if (error) *error = "trailing bytes after server-state payload";
      return false;
    }
  } catch (const std::exception& e) {
    if (error) {
      *error = std::string("corrupt server-state snapshot: ") + e.what();
    }
    return false;
  }
  return true;
}

bool SaveRelationSnapshot(const relation::Relation& rel,
                          const std::string& path, std::string* error) {
  return WriteFileBytes(SerializeRelation(rel), path, error);
}

RelationSnapshotResult LoadRelationSnapshot(const std::string& path) {
  RelationSnapshotResult result;
  auto bytes = ReadFileBytes(path, &result.error);
  if (!bytes) return result;
  return DeserializeRelation(*bytes);
}

bool SaveServerSnapshot(const sql::Database& db,
                        const std::vector<ServerMonitorState>& monitors,
                        const std::string& path, std::string* error,
                        const std::vector<ServerMonitorState>& sampled) {
  return WriteFileBytes(SerializeServerState(db, monitors, sampled), path,
                        error);
}

bool LoadServerSnapshot(const std::string& path, sql::Database* db,
                        std::vector<ServerMonitorState>* monitors,
                        std::string* error,
                        std::vector<ServerMonitorState>* sampled) {
  auto bytes = ReadFileBytes(path, error);
  if (!bytes) return false;
  return DeserializeServerState(*bytes, db, monitors, error, sampled);
}

}  // namespace fdevolve::storage
