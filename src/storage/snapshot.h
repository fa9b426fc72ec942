// FDEV1 — versioned binary columnar snapshots.
//
// CSV persistence re-parses and re-dictionary-encodes the whole stream on
// every restart; snapshots instead serialize the *encoded* layer directly
// (per-column dictionary + dense codes + row watermark, no per-cell Value
// boxing), in the spirit of DuckDB's persisted column segments and
// Hyrise's binary table export. Two payload kinds share one envelope:
//
//   * Relation          — one dictionary-encoded relation;
//   * Server state      — the durable state of a server::Service (or of
//     the CLI's monitor loop, which checkpoints in the same format): the
//     whole catalog plus one relation-free fd::MonitorState per monitor,
//     in an exact section and a sampled section (the relations live in
//     the catalog section; embedding a copy per monitor would double the
//     file). Sampled entries carry their reservoir (slots and raw
//     generator state), so a resumed sampled monitor replays the
//     identical remaining estimate sequence.
//
// File layout (all integers little-endian, see util/binary_io.h):
//
//   offset 0: magic "FDEV"            (4 bytes)
//             format version u32     (3)
//             payload kind u32       (1 = relation, 4 = server state;
//                                     2, 3 and 5 are retired and never
//                                     reused)
//             payload bytes
//   trailer:  FNV-1a u64 over everything before the trailer
//
// Format version 3: each relation payload ends with its tombstone
// deletion log (a u32 array of dead physical row ids in deletion order;
// empty for all-live relations) and its lifetime mutation counters; each
// drift-log entry carries a kind byte (0 = violated, 1 = recovered), an
// approx byte and four interval doubles (confidence lo/hi, goodness lo/hi;
// see fd::DriftEvent — all-default for exact events); the server-state
// payload ends with a sampled-monitor section (count + per-entry table
// name, monitor state, reservoir state; empty when no sampled monitors
// exist). Versions 1 and 2 predate tombstones and sampled monitors; no
// current writer produces them, and readers reject them.
//
// Retired kinds: earlier writers also produced database catalogs (kind 2,
// the catalog alone: a server state with no monitors holds the same),
// standalone monitor checkpoints (kind 3, relation + one exact monitor)
// and sampled monitor checkpoints (kind 5). Readers no longer parse them;
// loading one fails with a kind-mismatch error that names the retired
// kind.
//
// Integrity policy: loads verify size, magic, version, kind, and checksum
// before parsing, then parse with bounds-checked reads and validate every
// structural invariant (code ranges, null counts, dictionary uniqueness,
// deletion-log bounds, schema/FD consistency, measure agreement). A
// truncated or bit-flipped file fails with a clean error — never a crash,
// never a silently wrong object. Version policy: the u32 after the magic
// is bumped on any layout change; readers accept every version they know
// how to parse, [kMinFormatVersion, kFormatVersion], and reject the rest
// (no silent best-effort parsing of future formats). Writers always emit
// the current version, kFormatVersion.
//
// Bit-identity contract: a loaded snapshot reproduces the encoded state
// exactly — same dictionary order, same codes, same watermark, same
// tombstone bitmap (the deletion log is replayed through DeleteRow) — so
// every downstream computation (group ids, distinct counts, measure
// doubles, drift flags) is bit-identical to the evaluator state that
// wrote it. The differential fuzz suite and bench_snapshot gate this.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "fd/schema_monitor.h"
#include "relation/relation.h"
#include "sql/database.h"

namespace fdevolve::storage {

/// Format version written by this build. Readers accept every version in
/// [kMinFormatVersion, kFormatVersion] (see the file layout above).
inline constexpr uint32_t kFormatVersion = 3;
inline constexpr uint32_t kMinFormatVersion = 3;

/// Result of loading a relation snapshot (mirrors relation::CsvResult).
struct RelationSnapshotResult {
  std::optional<relation::Relation> relation;
  std::string error;

  /// True when the input is not an FDEV snapshot at all (missing magic /
  /// shorter than the envelope) — as opposed to a corrupt or mismatched
  /// snapshot. Lets callers that accept several formats fall back to
  /// another parser without matching on error text.
  bool not_a_snapshot = false;

  bool ok() const { return relation.has_value(); }
};

/// One monitored table's relation-free monitor state, keyed by table name
/// into the catalog persisted alongside it (see the server-state kind).
struct ServerMonitorState {
  std::string table;
  fd::MonitorState state;
};

/// Former name of a sampled-section entry, kept for the fdbench sources
/// (perfbench/) until they switch to ServerMonitorState. Use nowhere else.
using ServerSampledMonitorState = ServerMonitorState;

// --- Buffer-level API (the file functions are thin wrappers; tests use
// --- these to corrupt bytes in memory).

/// Serializes to a complete snapshot byte string (envelope + checksum).
std::string SerializeRelation(const relation::Relation& rel);

/// Writes the catalog, then `monitors` as the exact section and `sampled`
/// as the sampled section. Throws std::invalid_argument when an entry's
/// state does not match its section (a reservoir in the exact section, or
/// none in the sampled one).
std::string SerializeServerState(
    const sql::Database& db, const std::vector<ServerMonitorState>& monitors,
    const std::vector<ServerMonitorState>& sampled = {});

/// Parses a complete snapshot byte string of the matching kind.
RelationSnapshotResult DeserializeRelation(std::string_view bytes);

/// Adds the snapshot's catalog into `db` (normally empty) and fills
/// `monitors` with the exact section and, when non-null, `sampled` with
/// the sampled section. Structural validation: every monitor state must
/// reference a table present in the snapshot, at most once per section,
/// and its watermark must equal that table's tuple count (the pairing
/// guarantee SchemaMonitor's restore constructor relies on); sampled
/// states additionally carry their reservoir, validated on restore by
/// ReservoirSampler. A file with a sampled section fails the load when
/// `sampled` is null rather than silently dropping monitors. On failure
/// `*db` may hold a partial load.
bool DeserializeServerState(std::string_view bytes, sql::Database* db,
                            std::vector<ServerMonitorState>* monitors,
                            std::string* error,
                            std::vector<ServerMonitorState>* sampled =
                                nullptr);

// --- File-level API. Writers flush before reporting success so
// --- flush-time I/O errors (e.g. disk full) are not swallowed.

bool SaveRelationSnapshot(const relation::Relation& rel,
                          const std::string& path, std::string* error);
RelationSnapshotResult LoadRelationSnapshot(const std::string& path);

bool SaveServerSnapshot(const sql::Database& db,
                        const std::vector<ServerMonitorState>& monitors,
                        const std::string& path, std::string* error,
                        const std::vector<ServerMonitorState>& sampled = {});
bool LoadServerSnapshot(const std::string& path, sql::Database* db,
                        std::vector<ServerMonitorState>* monitors,
                        std::string* error,
                        std::vector<ServerMonitorState>* sampled = nullptr);

}  // namespace fdevolve::storage
