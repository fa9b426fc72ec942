#include "storage/snapshot.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "fd/measures.h"
#include "fd/schema_monitor.h"
#include "query/distinct.h"
#include "relation/relation.h"
#include "util/binary_io.h"

namespace fdevolve::storage {
namespace {

using relation::AttrSet;
using relation::Column;
using relation::DataType;
using relation::Relation;
using relation::RelationBuilder;
using relation::Schema;
using relation::Value;

Relation Mixed() {
  Schema schema({{"id", DataType::kInt64},
                 {"city", DataType::kString},
                 {"score", DataType::kDouble}});
  return RelationBuilder("mixed", schema)
      .Row({int64_t{1}, "milan", 0.1 + 0.2})
      .Row({int64_t{2}, "rome", -0.0})
      .Row({int64_t{1}, "milan", Value::Null()})
      .Row({int64_t{3}, Value::Null(), 1e-7})
      .Build();
}

/// Bit-level equality of the encoded layer: schema, dictionaries (order
/// included), codes, null counts, watermark.
void ExpectEncodedIdentical(const Relation& a, const Relation& b) {
  ASSERT_EQ(a.name(), b.name());
  ASSERT_EQ(a.attr_count(), b.attr_count());
  ASSERT_EQ(a.tuple_count(), b.tuple_count());
  EXPECT_EQ(a.version(), b.version());
  for (int i = 0; i < a.attr_count(); ++i) {
    EXPECT_EQ(a.schema().attr(i).name, b.schema().attr(i).name);
    EXPECT_EQ(a.schema().attr(i).type, b.schema().attr(i).type);
    const Column& ca = a.column(i);
    const Column& cb = b.column(i);
    ASSERT_EQ(ca.dict_size(), cb.dict_size());
    EXPECT_EQ(ca.null_count(), cb.null_count());
    for (size_t c = 0; c < ca.dict_size(); ++c) {
      const Value& va = ca.DictValue(static_cast<uint32_t>(c));
      const Value& vb = cb.DictValue(static_cast<uint32_t>(c));
      if (va.is_double()) {
        // Exact bits — NaN payloads and -0.0 must survive.
        const double da = va.as_double();
        const double db = vb.as_double();
        uint64_t ba, bb;
        std::memcpy(&ba, &da, 8);
        std::memcpy(&bb, &db, 8);
        EXPECT_EQ(ba, bb);
      } else {
        EXPECT_EQ(va, vb);
      }
    }
    EXPECT_EQ(ca.codes(), cb.codes());
  }
}

/// Recomputes the checksum trailer after an in-place edit, so a test can
/// change one field without tripping the checksum.
void Reseal(std::string& bytes) {
  const uint64_t sum = util::Checksum64(bytes.data(), bytes.size() - 8);
  for (int i = 0; i < 8; ++i) {
    bytes[bytes.size() - 8 + static_cast<size_t>(i)] =
        static_cast<char>((sum >> (8 * i)) & 0xff);
  }
}

TEST(SnapshotTest, RelationRoundTripIsEncodedIdentical) {
  Relation rel = Mixed();
  std::string bytes = SerializeRelation(rel);
  auto loaded = DeserializeRelation(bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  ExpectEncodedIdentical(rel, *loaded.relation);
}

TEST(SnapshotTest, EmptyRelationRoundTrips) {
  Schema schema({{"a", DataType::kInt64}, {"s", DataType::kString}});
  Relation rel("empty", schema);
  auto loaded = DeserializeRelation(SerializeRelation(rel));
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  EXPECT_EQ(loaded.relation->tuple_count(), 0u);
  ExpectEncodedIdentical(rel, *loaded.relation);
}

TEST(SnapshotTest, AwkwardStringsRoundTrip) {
  // Exactly the strings the CSV dialect cannot represent: the snapshot
  // format must carry them losslessly.
  Schema schema({{"s", DataType::kString}});
  Relation rel = RelationBuilder("awkward", schema)
                     .Row({Value("a,b")})
                     .Row({Value("two\nlines")})
                     .Row({Value("cr\r")})
                     .Row({Value("\\N")})
                     .Row({Value("")})
                     .Row({Value(std::string("nul\0byte", 8))})
                     .Build();
  auto loaded = DeserializeRelation(SerializeRelation(rel));
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  ExpectEncodedIdentical(rel, *loaded.relation);
}

TEST(SnapshotTest, NanDictionaryEntriesRoundTrip) {
  // NaN never equals itself, so each NaN append mints a fresh dictionary
  // code; the loaded column must reproduce that structure bit for bit.
  Schema schema({{"d", DataType::kDouble}});
  const double nan = std::nan("");
  Relation rel = RelationBuilder("nans", schema)
                     .Row({Value(nan)})
                     .Row({Value(nan)})
                     .Row({Value(1.5)})
                     .Build();
  ASSERT_EQ(rel.column(0).dict_size(), 3u);
  auto loaded = DeserializeRelation(SerializeRelation(rel));
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  ExpectEncodedIdentical(rel, *loaded.relation);
}

TEST(SnapshotTest, ZeroAttributeRelationKeepsTupleCount) {
  // AppendRow({}) on an empty schema counts tuples with no columns; the
  // snapshot must carry that count even though no column encodes it.
  Relation rel("degenerate", Schema(std::vector<relation::Attribute>{}));
  rel.AppendRow({});
  rel.AppendRow({});
  auto loaded = DeserializeRelation(SerializeRelation(rel));
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  EXPECT_EQ(loaded.relation->attr_count(), 0);
  EXPECT_EQ(loaded.relation->tuple_count(), 2u);
}

TEST(SnapshotTest, LoadedRelationProducesIdenticalQueryState) {
  // The reason encoded-identity matters: group ids, counts, and measure
  // doubles computed on the loaded relation must equal the originals.
  Relation rel = Mixed();
  auto loaded = DeserializeRelation(SerializeRelation(rel));
  ASSERT_TRUE(loaded.ok()) << loaded.error;

  query::DistinctEvaluator ea(rel);
  query::DistinctEvaluator eb(*loaded.relation);
  const AttrSet sets[] = {AttrSet::Of({0}), AttrSet::Of({0, 1}),
                          AttrSet::Of({0, 1, 2}), AttrSet()};
  for (const auto& s : sets) {
    EXPECT_EQ(ea.Count(s), eb.Count(s));
    const auto& ga = ea.GroupFor(s);
    const auto& gb = eb.GroupFor(s);
    EXPECT_EQ(ga.group_count, gb.group_count);
    EXPECT_EQ(ga.ids, gb.ids);
  }
  fd::Fd f(AttrSet::Of({0}), AttrSet::Of({1}));
  fd::FdMeasures ma = fd::ComputeMeasures(ea, f);
  fd::FdMeasures mb = fd::ComputeMeasures(eb, f);
  EXPECT_EQ(ma.confidence, mb.confidence);
  EXPECT_EQ(ma.goodness, mb.goodness);
  EXPECT_EQ(ma.exact, mb.exact);
}

TEST(SnapshotTest, DatabaseRoundTripsTablesAndFds) {
  sql::Database db;
  db.AddRelation(Mixed());
  Schema s2({{"x", DataType::kInt64}, {"y", DataType::kInt64}});
  db.AddRelation(RelationBuilder("pairs", s2)
                     .Row({int64_t{1}, int64_t{2}})
                     .Build());
  db.DeclareFd("mixed", "id -> city", "label1");
  db.DeclareFd("pairs", "x -> y");

  sql::Database back;
  std::string err;
  ASSERT_TRUE(DeserializeDatabase(SerializeDatabase(db), &back, &err)) << err;
  ASSERT_EQ(back.TableNames(), db.TableNames());
  ExpectEncodedIdentical(db.Get("mixed"), back.Get("mixed"));
  ExpectEncodedIdentical(db.Get("pairs"), back.Get("pairs"));
  auto fds = back.Fds();
  ASSERT_EQ(fds.size(), 2u);
  EXPECT_EQ(fds[0].table, "mixed");
  EXPECT_EQ(fds[0].fd, db.Fds()[0].fd);
  EXPECT_EQ(fds[0].fd.label(), "label1");
  EXPECT_EQ(fds[1].table, "pairs");
  EXPECT_EQ(fds[1].fd, db.Fds()[1].fd);
}

TEST(SnapshotTest, FileRoundTrip) {
  Relation rel = Mixed();
  const std::string path = testing::TempDir() + "/fdevolve_snapshot_test.fdsnap";
  std::string err;
  ASSERT_TRUE(SaveRelationSnapshot(rel, path, &err)) << err;
  auto loaded = LoadRelationSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  ExpectEncodedIdentical(rel, *loaded.relation);
}

TEST(SnapshotTest, MissingFileFailsCleanly) {
  auto r = LoadRelationSnapshot("/nonexistent/dir/x.fdsnap");
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("cannot open"), std::string::npos) << r.error;
}

TEST(SnapshotTest, KindMismatchIsDetected) {
  Relation rel = Mixed();
  std::string bytes = SerializeRelation(rel);
  sql::Database db;
  std::string err;
  EXPECT_FALSE(DeserializeDatabase(bytes, &db, &err));
  EXPECT_NE(err.find("kind mismatch"), std::string::npos) << err;
  std::vector<ServerMonitorState> monitors;
  EXPECT_FALSE(DeserializeServerState(bytes, &db, &monitors, &err));
  EXPECT_NE(err.find("kind mismatch"), std::string::npos) << err;
  // Retired kinds 3 (monitor checkpoint) and 5 (sampled monitor
  // checkpoint): the error says what the file is.
  for (char kind : {'\3', '\5'}) {
    std::string retired = bytes;
    retired[8] = kind;  // kind field, little-endian low byte
    Reseal(retired);
    sql::Database none;
    EXPECT_FALSE(DeserializeServerState(retired, &none, &monitors, &err));
    EXPECT_NE(err.find("kind mismatch"), std::string::npos) << err;
    EXPECT_NE(err.find("retired kind " + std::to_string(kind)),
              std::string::npos)
        << err;
  }
}

TEST(SnapshotTest, UnsupportedVersionIsRejected) {
  std::string bytes = SerializeRelation(Mixed());
  bytes[4] = 99;  // version field, little-endian low byte
  Reseal(bytes);   // so only the version differs, not the checksum
  auto r = DeserializeRelation(bytes);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("version"), std::string::npos) << r.error;
}

TEST(SnapshotTest, TruncationAtEveryLengthFailsCleanly) {
  // Every proper prefix of a valid snapshot must produce an error — never
  // a crash, never a silently loaded relation. (Run under ASan in CI.)
  std::string bytes = SerializeRelation(Mixed());
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    auto r = DeserializeRelation(std::string_view(bytes.data(), cut));
    EXPECT_FALSE(r.ok()) << "prefix of length " << cut << " loaded";
    EXPECT_FALSE(r.error.empty());
  }
}

TEST(SnapshotTest, EveryByteBitFlipFailsCleanly) {
  // Flip every bit of every byte: the checksum (or, for trailer flips,
  // the re-verification) must reject each mutation with a clean error.
  std::string bytes = SerializeRelation(Mixed());
  for (size_t i = 0; i < bytes.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      bytes[i] = static_cast<char>(bytes[i] ^ (1 << bit));
      auto r = DeserializeRelation(bytes);
      EXPECT_FALSE(r.ok()) << "flip at byte " << i << " bit " << bit;
      bytes[i] = static_cast<char>(bytes[i] ^ (1 << bit));
    }
  }
  // Restored: loads again.
  EXPECT_TRUE(DeserializeRelation(bytes).ok());
}

TEST(SnapshotTest, CorruptCheckpointPayloadIsRejectedBeforeResume) {
  // A structurally valid server state whose measures disagree with its
  // relation must be refused by the restore constructor.
  Schema schema({{"a", DataType::kInt64}, {"b", DataType::kInt64}});
  sql::Database db;
  db.AddRelation(RelationBuilder("t", schema)
                     .Row({int64_t{1}, int64_t{10}})
                     .Row({int64_t{2}, int64_t{20}})
                     .Build());
  fd::SchemaMonitor mon(&db.GetMutable("t"),
                        {fd::Fd(AttrSet::Of({0}), AttrSet::Of({1}))}, 1);
  fd::MonitorState state = mon.State();
  state.fds[0].measures.distinct_x += 1;  // lie about the counters
  sql::Database back;
  std::vector<ServerMonitorState> monitors;
  std::string err;
  ASSERT_TRUE(DeserializeServerState(SerializeServerState(db, {{"t", state}}),
                                     &back, &monitors, &err))
      << err;
  ASSERT_EQ(monitors.size(), 1u);
  EXPECT_THROW(fd::SchemaMonitor(&back.GetMutable("t"),
                                 std::move(monitors[0].state)),
               std::invalid_argument);
}

TEST(SnapshotTest, NonSnapshotInputSetsStructuredFlag) {
  auto csvish = DeserializeRelation("a:int64\n1\n2\n3\n4\n5\n6\n7\n8\n");
  EXPECT_FALSE(csvish.ok());
  EXPECT_TRUE(csvish.not_a_snapshot);
  auto tiny = DeserializeRelation("x");
  EXPECT_FALSE(tiny.ok());
  EXPECT_TRUE(tiny.not_a_snapshot);
  // A real snapshot with a corrupt byte IS a snapshot — just a bad one.
  std::string bytes = SerializeRelation(Mixed());
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 1);
  auto corrupt = DeserializeRelation(bytes);
  EXPECT_FALSE(corrupt.ok());
  EXPECT_FALSE(corrupt.not_a_snapshot);
}

TEST(SnapshotTest, TombstonedRelationRoundTrips) {
  Relation rel = Mixed();
  rel.DeleteRow(1);
  rel.DeleteRow(3);
  auto loaded = DeserializeRelation(SerializeRelation(rel));
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  // Physical layout identical (tombstones do not move bytes)...
  ExpectEncodedIdentical(rel, *loaded.relation);
  // ...and the tombstone state replays exactly.
  EXPECT_EQ(loaded.relation->live_count(), rel.live_count());
  EXPECT_EQ(loaded.relation->deletion_log(), rel.deletion_log());
  for (size_t t = 0; t < rel.tuple_count(); ++t) {
    EXPECT_EQ(loaded.relation->is_live(t), rel.is_live(t)) << t;
  }
  // The loaded relation compacts to the same bytes the original does.
  Relation a = rel.CompactedCopy();
  Relation b = loaded.relation->CompactedCopy();
  ExpectEncodedIdentical(a, b);
}

TEST(SnapshotTest, ZeroAttributeTombstonesRoundTrip) {
  Relation rel("degenerate", Schema(std::vector<relation::Attribute>{}));
  rel.AppendRow({});
  rel.AppendRow({});
  rel.AppendRow({});
  rel.DeleteRow(1);
  auto loaded = DeserializeRelation(SerializeRelation(rel));
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  EXPECT_EQ(loaded.relation->tuple_count(), 3u);
  EXPECT_EQ(loaded.relation->live_count(), 2u);
  EXPECT_FALSE(loaded.relation->is_live(1));
}

TEST(SnapshotTest, CorruptDeletionLogIsRejected) {
  Relation rel = Mixed();
  rel.DeleteRow(0);
  std::string bytes = SerializeRelation(rel);
  // The log's single entry (row id 0) sits just before the v3
  // lifetime-counter section (3 u64) and the checksum trailer. Point it
  // past the watermark and re-seal: DeleteRow must refuse it.
  const size_t id_at = bytes.size() - 8 - 24 - 4;
  bytes[id_at] = 9;
  Reseal(bytes);
  auto r = DeserializeRelation(bytes);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("corrupt"), std::string::npos) << r.error;
}

TEST(SnapshotTest, WritesCurrentFormatVersion) {
  std::string bytes = SerializeRelation(Mixed());
  ASSERT_GE(bytes.size(), 8u);
  EXPECT_EQ(static_cast<uint32_t>(static_cast<unsigned char>(bytes[4])),
            kFormatVersion);
}

TEST(SnapshotTest, V1RelationFixtureStillLoads) {
  // A pre-tombstone v1 file, byte-built the way the v1 writer laid it
  // out: no deletion-log section, no drift kinds. Guards the promise that
  // bumping the format does not orphan existing snapshots.
  util::BinaryWriter w;
  w.Bytes("FDEV", 4);
  w.U32(1);  // format version 1
  w.U32(1);  // kind: relation
  w.Str("legacy");
  w.U32(1);  // one attribute
  w.Str("a");
  w.U8(0);  // int64
  w.U64(3);  // tuple count
  w.U64(0);  // null count
  w.U64(2);  // dict size
  w.I64(10);
  w.I64(20);
  w.U32Array({0u, 1u, 0u});
  w.U64(w.Checksum());

  auto loaded = DeserializeRelation(w.buffer());
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  EXPECT_EQ(loaded.relation->name(), "legacy");
  EXPECT_EQ(loaded.relation->tuple_count(), 3u);
  EXPECT_EQ(loaded.relation->live_count(), 3u);  // v1 = all live
  EXPECT_FALSE(loaded.relation->has_tombstones());
  EXPECT_EQ(loaded.relation->Get(1, 0), Value(int64_t{20}));
  // The loaded relation re-serializes as v2 (same logical content, now
  // with an empty deletion-log section).
  auto again = DeserializeRelation(SerializeRelation(*loaded.relation));
  ASSERT_TRUE(again.ok()) << again.error;
  ExpectEncodedIdentical(*loaded.relation, *again.relation);
}

TEST(SnapshotTest, DriftKindSurvivesCheckpointRoundTrip) {
  Schema schema({{"a", DataType::kInt64}, {"b", DataType::kInt64}});
  Relation shared = RelationBuilder("t", schema)
                        .Row({int64_t{1}, int64_t{10}})
                        .Build();
  fd::SchemaMonitor mon(&shared,
                        {fd::Fd(AttrSet::Of({0}), AttrSet::Of({1}))}, 1);
  shared.AppendRow({int64_t{1}, int64_t{11}});
  mon.Poll();  // violated
  shared.DeleteRow(1);
  mon.Poll();  // recovered
  ASSERT_EQ(mon.drift_log().size(), 2u);
  ASSERT_EQ(mon.drift_log()[1].kind, fd::DriftKind::kRecovered);

  fd::MonitorState state = mon.State();
  sql::Database db;
  relation::Relation copy = shared;
  db.AddRelation(std::move(copy));
  std::string bytes = SerializeServerState(db, {{"t", state}});
  sql::Database back;
  std::vector<ServerMonitorState> monitors;
  std::string err;
  ASSERT_TRUE(DeserializeServerState(bytes, &back, &monitors, &err)) << err;
  ASSERT_EQ(monitors.size(), 1u);
  ASSERT_EQ(monitors[0].state.drift_log.size(), 2u);
  EXPECT_EQ(monitors[0].state.drift_log[0].kind, fd::DriftKind::kViolated);
  EXPECT_EQ(monitors[0].state.drift_log[1].kind, fd::DriftKind::kRecovered);
  // The restored table carries the tombstone.
  EXPECT_EQ(back.Get("t").live_count(), 1u);
}

TEST(SnapshotTest, CheckpointRoundTripRestoresMonitorState) {
  Schema schema({{"a", DataType::kInt64}, {"b", DataType::kInt64}});
  sql::Database db;
  db.AddRelation(RelationBuilder("t", schema)
                     .Row({int64_t{1}, int64_t{10}})
                     .Row({int64_t{2}, int64_t{20}})
                     .Build());
  Relation& rel = db.GetMutable("t");
  fd::SchemaMonitor mon(&rel, {fd::Fd(AttrSet::Of({0}), AttrSet::Of({1}))},
                        /*check_interval=*/2);
  // Drive it into a drift so the checkpoint carries non-trivial state.
  rel.AppendRow({int64_t{1}, int64_t{11}});  // violates a -> b
  mon.Poll();
  rel.AppendRow({int64_t{5}, int64_t{50}});
  mon.Poll();
  ASSERT_EQ(mon.drift_log().size(), 1u);

  sql::Database loaded;
  std::vector<ServerMonitorState> monitors;
  std::string err;
  ASSERT_TRUE(DeserializeServerState(
      SerializeServerState(db, {{"t", mon.State()}}), &loaded, &monitors,
      &err))
      << err;
  ASSERT_EQ(monitors.size(), 1u);
  fd::SchemaMonitor back(&loaded.GetMutable("t"),
                         std::move(monitors[0].state));
  EXPECT_EQ(back.rel().tuple_count(), mon.rel().tuple_count());
  EXPECT_EQ(back.checks_run(), mon.checks_run());
  ASSERT_EQ(back.fds().size(), 1u);
  EXPECT_EQ(back.fds()[0].violated, mon.fds()[0].violated);
  EXPECT_EQ(back.fds()[0].first_violation_at, mon.fds()[0].first_violation_at);
  EXPECT_EQ(back.fds()[0].measures.confidence, mon.fds()[0].measures.confidence);
  ASSERT_EQ(back.drift_log().size(), 1u);
  EXPECT_EQ(back.drift_log()[0].tuple_count, mon.drift_log()[0].tuple_count);
}

/// A one-table database whose sampled monitor has non-trivial state:
/// partial coverage (reservoir smaller than the stream) and a witnessed
/// violation. Neither copyable nor movable (the monitor observes `db`).
struct SampledFixture {
  sql::Database db;
  std::optional<fd::SchemaMonitor> mon;

  SampledFixture() {
    Schema schema({{"a", DataType::kInt64}, {"b", DataType::kInt64}});
    db.AddRelation(Relation("t", schema));
    Relation* rel = &db.GetMutable("t");
    mon.emplace(rel,
                std::vector<fd::Fd>{fd::Fd(AttrSet::Of({0}), AttrSet::Of({1}))},
                /*check_interval=*/2, /*capacity=*/4, /*seed=*/17);
    // Exact prefix well past the capacity, so the violating flood below is
    // first witnessed at partial coverage (an approx drift event).
    auto insert = [&](int64_t a, int64_t b) {
      rel->AppendRow({a, b});
      mon->Poll();
    };
    for (int64_t i = 0; i < 20; ++i) insert(100 + i, i * 2);
    for (int64_t i = 0; i < 40; ++i) insert(1, i);
  }

  std::string Bytes() const {
    return SerializeServerState(db, {}, {{"t", mon->State()}});
  }
};

/// Loads server-state bytes whose only monitor is sampled.
fd::MonitorState LoadSampledState(const std::string& bytes,
                                  sql::Database* db) {
  std::vector<ServerMonitorState> monitors;
  std::vector<ServerMonitorState> sampled;
  std::string err;
  EXPECT_TRUE(DeserializeServerState(bytes, db, &monitors, &err, &sampled))
      << err;
  EXPECT_TRUE(monitors.empty() && sampled.size() == 1);
  return sampled.empty() ? fd::MonitorState{} : std::move(sampled[0].state);
}

TEST(SnapshotTest, SampledCheckpointRoundTripIsByteStable) {
  SampledFixture f;
  const fd::SchemaMonitor& mon = *f.mon;
  const std::string bytes = f.Bytes();
  sql::Database loaded;
  fd::MonitorState state = LoadSampledState(bytes, &loaded);
  ASSERT_TRUE(state.reservoir.has_value());
  EXPECT_EQ(SerializeServerState(loaded, {}, {{"t", state}}), bytes);

  fd::SchemaMonitor back(&loaded.GetMutable("t"), std::move(state));
  EXPECT_EQ(back.checks_run(), mon.checks_run());
  EXPECT_EQ(back.sample_capacity(), mon.sample_capacity());
  EXPECT_EQ(back.sample_seed(), mon.sample_seed());
  ASSERT_EQ(back.estimates().size(), mon.estimates().size());
  EXPECT_EQ(back.estimates()[0].confidence_lo,
            mon.estimates()[0].confidence_lo);
  EXPECT_EQ(back.estimates()[0].confidence_hi,
            mon.estimates()[0].confidence_hi);
  EXPECT_EQ(back.fds()[0].violated, mon.fds()[0].violated);
}

TEST(SnapshotTest, ServerStateWriterRejectsStateInWrongSection) {
  // The sections differ only in the reservoir each sampled entry carries:
  // a state must carry one exactly when it is written to the sampled
  // section, or the file would not parse back.
  SampledFixture f;
  const fd::MonitorState sampled = f.mon->State();
  fd::SchemaMonitor exact(&f.db.GetMutable("t"),
                          {fd::Fd(AttrSet::Of({0}), AttrSet::Of({1}))});
  EXPECT_THROW(SerializeServerState(f.db, {{"t", sampled}}),
               std::invalid_argument);
  EXPECT_THROW(SerializeServerState(f.db, {}, {{"t", exact.State()}}),
               std::invalid_argument);
  EXPECT_NO_THROW(
      SerializeServerState(f.db, {{"t", exact.State()}}, {{"t", sampled}}));
}

TEST(SnapshotTest, SampledCheckpointTruncationFailsCleanly) {
  SampledFixture f;
  const std::string bytes = f.Bytes();
  for (size_t len = 0; len < bytes.size(); ++len) {
    sql::Database db;
    std::vector<ServerMonitorState> monitors;
    std::vector<ServerMonitorState> sampled;
    std::string err;
    EXPECT_FALSE(DeserializeServerState(bytes.substr(0, len), &db, &monitors,
                                        &err, &sampled))
        << "accepted a " << len << "-byte prefix";
  }
}

TEST(SnapshotTest, ApproxDriftEventSurvivesSampledCheckpoint) {
  SampledFixture f;
  ASSERT_FALSE(f.mon->drift_log().empty());
  const fd::DriftEvent& ev = f.mon->drift_log()[0];
  ASSERT_TRUE(ev.approx);  // partial coverage, witnessed violation

  sql::Database loaded;
  const fd::MonitorState state = LoadSampledState(f.Bytes(), &loaded);
  ASSERT_FALSE(state.drift_log.empty());
  const fd::DriftEvent& back = state.drift_log[0];
  EXPECT_TRUE(back.approx);
  EXPECT_EQ(back.confidence_lo, ev.confidence_lo);
  EXPECT_EQ(back.confidence_hi, ev.confidence_hi);
  EXPECT_EQ(back.goodness_lo, ev.goodness_lo);
  EXPECT_EQ(back.goodness_hi, ev.goodness_hi);
}

TEST(SnapshotTest, ServerStateCarriesSampledSection) {
  Schema schema({{"a", DataType::kInt64}, {"b", DataType::kInt64}});
  Relation shared = RelationBuilder("t", schema)
                        .Row({int64_t{1}, int64_t{10}})
                        .Build();
  fd::SchemaMonitor mon(&shared, {fd::Fd(AttrSet::Of({0}), AttrSet::Of({1}))},
                        /*check_interval=*/1, /*capacity=*/8, /*seed=*/5);
  shared.AppendRow({int64_t{2}, int64_t{20}});
  mon.Poll();

  sql::Database db;
  relation::Relation copy = shared;
  db.AddRelation(std::move(copy));
  const std::string bytes =
      SerializeServerState(db, {}, {{"t", mon.State()}});

  sql::Database back;
  std::vector<ServerMonitorState> monitors;
  std::vector<ServerMonitorState> sampled;
  std::string err;
  ASSERT_TRUE(
      DeserializeServerState(bytes, &back, &monitors, &err, &sampled))
      << err;
  EXPECT_TRUE(monitors.empty());
  ASSERT_EQ(sampled.size(), 1u);
  EXPECT_EQ(sampled[0].table, "t");
  ASSERT_TRUE(sampled[0].state.reservoir.has_value());
  EXPECT_EQ(sampled[0].state.reservoir->seen, mon.State().reservoir->seen);
  EXPECT_EQ(sampled[0].state.reservoir->rng_state,
            mon.State().reservoir->rng_state);

  // A caller that cannot receive the section must get a clean error, not
  // silently dropped monitors.
  sql::Database ignored;
  std::vector<ServerMonitorState> m2;
  EXPECT_FALSE(DeserializeServerState(bytes, &ignored, &m2, &err, nullptr));
  EXPECT_NE(err.find("sampled"), std::string::npos) << err;
}

TEST(SnapshotTest, SecondMonitorStateForTableFailsLoad) {
  // One monitor per table and section: restoring a second state for the
  // same table would silently replace the first monitor.
  Schema schema({{"a", DataType::kInt64}, {"b", DataType::kInt64}});
  sql::Database db;
  db.AddRelation(
      RelationBuilder("t", schema).Row({int64_t{1}, int64_t{10}}).Build());
  Relation* rel = &db.GetMutable("t");
  const fd::Fd ab(AttrSet::Of({0}), AttrSet::Of({1}));
  const fd::Fd ba(AttrSet::Of({1}), AttrSet::Of({0}));
  fd::SchemaMonitor a(rel, {ab});
  fd::SchemaMonitor b(rel, {ba});
  fd::SchemaMonitor sa(rel, {ab}, 1, /*capacity=*/4, /*seed=*/1);
  fd::SchemaMonitor sb(rel, {ba}, 1, /*capacity=*/4, /*seed=*/2);
  const std::string inputs[] = {
      SerializeServerState(db, {{"t", a.State()}, {"t", b.State()}}),
      SerializeServerState(db, {}, {{"t", sa.State()}, {"t", sb.State()}}),
  };
  for (const std::string& bytes : inputs) {
    sql::Database back;
    std::vector<ServerMonitorState> monitors;
    std::vector<ServerMonitorState> sampled;
    std::string err;
    EXPECT_FALSE(
        DeserializeServerState(bytes, &back, &monitors, &err, &sampled));
    EXPECT_NE(err.find("two monitor states for table 't'"), std::string::npos)
        << err;
  }
}

TEST(SnapshotTest, V3ServerStateFixtureStillLoads) {
  // 988 server-state bytes written by the v3 writer of the build that
  // still had separate exact and sampled monitor classes: table t(a, b),
  // 16 rows, row 0 deleted; an EVERY 2 exact monitor on a -> b with one
  // unchecked mutation pending, and an EVERY 1 SAMPLE 3 SEED 17 monitor on
  // a -> b; each logged one drift event, the sampled one approximate.
  // Existing checkpoints must load, restore, and re-serialize unchanged.
  std::string hex =
      "4644455603000000040000000100000001000000000000007402000000010000"
      "0000000000610001000000000000006200100000000000000000000000000000"
      "0009000000000000006400000000000000650000000000000066000000000000"
      "006700000000000000680000000000000069000000000000006a000000000000"
      "006b000000000000000100000000000000100000000000000000000000010000"
      "0002000000030000000400000005000000060000000700000008000000080000"
      "0008000000080000000800000008000000080000000800000000000000000000"
      "000c000000000000000000000000000000020000000000000004000000000000"
      "00060000000000000008000000000000000a000000000000000c000000000000"
      "000e000000000000000100000000000000030000000000000005000000000000"
      "0007000000000000001000000000000000000000000100000002000000030000"
      "0004000000050000000600000007000000000000000800000001000000090000"
      "00020000000a000000030000000b000000010000000000000000000000100000"
      "0000000000010000000000000000000000000000000100000001000000000000"
      "0074000000000000000001000000000000000100000001000000010000000100"
      "0000000000007402000000000000000100000000000000080000000000000010"
      "0000000000000001000000000000000000000001000000000000000100000001"
      "00000008000000000000000e000000000000000b000000000000009224499224"
      "49e23ffdffffffffffffff0001010b0000000000000001000000000000000000"
      "00000a0000000000000008000000000000000a00000000000000090000000000"
      "00009a9999999999e93fffffffffffffffff000000000000000000f03f000000"
      "000000f03f000000000000000000000000000000000100000001000000000000"
      "0074010000000000000000000000000000001100000000000000100000000000"
      "0000010000000000000000000000010000000000000001000000010000000600"
      "0000000000000f000000000000000f000000000000009a9999999999d93ff7ff"
      "ffffffffffff0001010c000000000000000100000000000000000000000b0000"
      "000000000005000000000000000b000000000000000b00000000000000269b6c"
      "b2c926db3ffaffffffffffffff00000146175d74d145c73f175d74d14517ed3f"
      "00000000000022c00000000000001c4003000000000000001100000000000000"
      "53af6b646ff058d9100000000000000003000000000000000b00000003000000"
      "0800000010000000000000000000000000000000443b348d54b9c264";
  std::string bytes;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    bytes.push_back(
        static_cast<char>(std::stoi(hex.substr(i, 2), nullptr, 16)));
  }
  ASSERT_EQ(bytes.size(), 988u);

  sql::Database db;
  std::vector<ServerMonitorState> monitors;
  std::vector<ServerMonitorState> sampled;
  std::string err;
  ASSERT_TRUE(DeserializeServerState(bytes, &db, &monitors, &err, &sampled))
      << err;
  ASSERT_EQ(monitors.size(), 1u);
  ASSERT_EQ(sampled.size(), 1u);
  Relation* rel = &db.GetMutable("t");
  EXPECT_EQ(rel->tuple_count(), 16u);
  EXPECT_EQ(rel->live_count(), 15u);
  fd::SchemaMonitor exact(rel, monitors[0].state);
  fd::SchemaMonitor approx(rel, sampled[0].state);
  EXPECT_EQ(exact.sample_capacity(), 0u);
  EXPECT_EQ(exact.State().inserts_since_check, 1u);
  ASSERT_EQ(exact.drift_log().size(), 1u);
  EXPECT_FALSE(exact.drift_log()[0].approx);
  EXPECT_EQ(approx.sample_capacity(), 3u);
  EXPECT_EQ(approx.sample_seed(), 17u);
  ASSERT_EQ(approx.drift_log().size(), 1u);
  EXPECT_TRUE(approx.drift_log()[0].approx);
  EXPECT_EQ(SerializeServerState(db, {{"t", exact.State()}},
                                 {{"t", approx.State()}}),
            bytes);
}

}  // namespace
}  // namespace fdevolve::storage
