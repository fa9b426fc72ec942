// Differential fuzzing of the FDEV1 snapshot layer.
//
// Contracts under test:
//   * save -> load reproduces the encoded layer exactly, so any query
//     sequence (group ids, distinct counts, measure doubles) evaluated on
//     the loaded relation is bit-identical to the never-persisted run;
//   * a monitor resumed from a mid-stream checkpoint emits the identical
//     remaining check sequence (measures, drift events, counters) as the
//     uninterrupted monitor;
//   * random corruption (bit flips, truncation) always fails with a clean
//     error — never a crash (run under ASan/UBSan in CI), never a silently
//     loaded object.
// Reproducible via --seed=N / FDEVOLVE_SEED.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "fd/measures.h"
#include "fd/schema_monitor.h"
#include "query/distinct.h"
#include "relation/relation.h"
#include "storage/snapshot.h"
#include "support/fuzz_seed.h"
#include "util/rng.h"

namespace fdevolve::storage {
namespace {

using relation::AttrSet;
using relation::DataType;
using relation::Relation;
using relation::Schema;
using relation::Value;

/// Random string over a deliberately nasty alphabet: CSV-hostile
/// characters, NULs, high bytes — the snapshot format must not care.
std::string RandomString(util::Rng& rng) {
  static const char alphabet[] = {'a', 'b', ',', '\n', '\r', '\\',
                                  'N', '\0', '\x7f', ' '};
  std::string s;
  const size_t len = rng.Below(6);
  for (size_t i = 0; i < len; ++i) {
    s.push_back(alphabet[rng.Below(sizeof(alphabet))]);
  }
  return s;
}

Schema MixedSchema(int n_attrs, util::Rng& rng) {
  std::vector<relation::Attribute> attrs;
  for (int i = 0; i < n_attrs; ++i) {
    DataType t = static_cast<DataType>(rng.Below(3));
    attrs.push_back({"a" + std::to_string(i), t});
  }
  return Schema(std::move(attrs));
}

Value RandomCell(util::Rng& rng, DataType type, size_t domain,
                 double null_rate) {
  if (rng.Chance(null_rate)) return Value::Null();
  switch (type) {
    case DataType::kInt64:
      return Value(static_cast<int64_t>(rng.Below(domain)) - 2);
    case DataType::kDouble:
      // Includes -0.0 and values that do not survive 6-digit rendering.
      return Value(static_cast<double>(rng.Below(domain)) * 0.1 - 0.2);
    case DataType::kString:
      return Value(RandomString(rng));
  }
  return Value::Null();
}

Relation RandomRelation(util::Rng& rng, const std::string& name,
                        size_t rows) {
  const int n_attrs = 2 + static_cast<int>(rng.Below(4));
  Schema schema = MixedSchema(n_attrs, rng);
  Relation rel(name, schema);
  const size_t domain = 2 + rng.Below(6);
  const double null_rate = rng.Chance(0.5) ? 0.0 : 0.2;
  for (size_t t = 0; t < rows; ++t) {
    std::vector<Value> row;
    for (int a = 0; a < n_attrs; ++a) {
      row.push_back(RandomCell(rng, schema.attr(a).type, domain, null_rate));
    }
    rel.AppendRow(row);
  }
  return rel;
}

AttrSet RandomSubset(util::Rng& rng, int n_attrs, double p) {
  AttrSet s;
  for (int a = 0; a < n_attrs; ++a) {
    if (rng.Chance(p)) s.Add(a);
  }
  return s;
}

class SnapshotFuzz : public ::testing::TestWithParam<int> {
 protected:
  uint64_t seed() const { return testsupport::DeriveSeed(GetParam()); }
};

// save -> load -> query must equal the never-persisted run bit for bit.
TEST_P(SnapshotFuzz, LoadedRelationAnswersQueriesIdentically) {
  util::Rng rng(seed());
  Relation rel = RandomRelation(rng, "fuzz", rng.Below(200));
  auto loaded = DeserializeRelation(SerializeRelation(rel));
  ASSERT_TRUE(loaded.ok()) << loaded.error;

  query::DistinctEvaluator original(rel);
  query::DistinctEvaluator restored(*loaded.relation);
  for (int q = 0; q < 12; ++q) {
    AttrSet s = RandomSubset(rng, rel.attr_count(), 0.4);
    ASSERT_EQ(original.Count(s), restored.Count(s)) << "query " << q;
    const query::Grouping& ga = original.GroupFor(s);
    const query::Grouping& gb = restored.GroupFor(s);
    ASSERT_EQ(ga.group_count, gb.group_count) << "query " << q;
    ASSERT_EQ(ga.ids, gb.ids) << "query " << q;
  }
  // Measure doubles over random FDs: same integer counts through the same
  // arithmetic => identical doubles.
  for (int f = 0; f < 4; ++f) {
    AttrSet lhs = RandomSubset(rng, rel.attr_count(), 0.4);
    int rhs_attr = static_cast<int>(rng.Below(rel.attr_count()));
    if (lhs.Contains(rhs_attr)) lhs.Remove(rhs_attr);
    fd::Fd fd(lhs, AttrSet::Of({rhs_attr}));
    fd::FdMeasures ma = fd::ComputeMeasures(original, fd);
    fd::FdMeasures mb = fd::ComputeMeasures(restored, fd);
    ASSERT_EQ(ma.distinct_x, mb.distinct_x);
    ASSERT_EQ(ma.distinct_xy, mb.distinct_xy);
    ASSERT_EQ(ma.distinct_y, mb.distinct_y);
    ASSERT_EQ(ma.confidence, mb.confidence);
    ASSERT_EQ(ma.goodness, mb.goodness);
    ASSERT_EQ(ma.exact, mb.exact);
  }
}

// The checkpoint/resume acceptance criterion: stop a monitor mid-stream,
// round-trip its checkpoint through bytes, resume, and stream the rest —
// the resumed monitor's remaining check sequence (per-insert measures,
// drift events, counters) must equal the uninterrupted monitor's.
TEST_P(SnapshotFuzz, ResumedMonitorEmitsIdenticalRemainingChecks) {
  util::Rng rng(seed() + 101);
  const int n_attrs = 3;
  std::vector<relation::Attribute> attrs;
  for (int i = 0; i < n_attrs; ++i) {
    attrs.push_back({"a" + std::to_string(i), DataType::kInt64});
  }
  const Schema schema{attrs};

  const size_t seed_rows = 5 + rng.Below(20);
  const size_t stream_rows = 30 + rng.Below(60);
  const size_t domain = 2 + rng.Below(4);
  auto random_row = [&](util::Rng& r) {
    std::vector<Value> row;
    for (int a = 0; a < n_attrs; ++a) {
      row.emplace_back(static_cast<int64_t>(r.Below(domain)));
    }
    return row;
  };

  // One fixed random stream, shared by both monitors.
  std::vector<std::vector<Value>> stream;
  Relation seed_rel("mon", schema);
  for (size_t t = 0; t < seed_rows; ++t) seed_rel.AppendRow(random_row(rng));
  for (size_t t = 0; t < stream_rows; ++t) stream.push_back(random_row(rng));
  sql::Database first_db;  // the interrupted run's copy of the seed
  first_db.AddRelation(seed_rel);

  const std::vector<fd::Fd> fds = {fd::Fd::Parse("a0 -> a1", schema),
                                   fd::Fd::Parse("a0, a1 -> a2", schema)};
  const size_t interval = 1 + rng.Below(6);
  const size_t stop_at = rng.Below(stream_rows + 1);

  // Uninterrupted run, recording the observable state after every insert.
  struct Obs {
    size_t checks_run;
    std::vector<fd::FdMeasures> measures;
    std::vector<bool> violated;
    size_t drift_count;
  };
  auto observe = [&](const fd::SchemaMonitor& m) {
    Obs o;
    o.checks_run = m.checks_run();
    for (const auto& mf : m.fds()) {
      o.measures.push_back(mf.measures);
      o.violated.push_back(mf.violated);
    }
    o.drift_count = m.drift_log().size();
    return o;
  };
  auto same = [](const Obs& a, const Obs& b) {
    if (a.checks_run != b.checks_run || a.drift_count != b.drift_count ||
        a.violated != b.violated) {
      return false;
    }
    for (size_t i = 0; i < a.measures.size(); ++i) {
      const auto& x = a.measures[i];
      const auto& y = b.measures[i];
      if (x.distinct_x != y.distinct_x || x.distinct_xy != y.distinct_xy ||
          x.distinct_y != y.distinct_y || x.confidence != y.confidence ||
          x.goodness != y.goodness || x.exact != y.exact) {
        return false;
      }
    }
    return true;
  };

  fd::SchemaMonitor uninterrupted(&seed_rel, fds, interval);
  std::vector<Obs> expect_after;  // state after insert t, t in [0, n)
  for (const auto& row : stream) {
    seed_rel.AppendRow(row);
    uninterrupted.Poll();
    expect_after.push_back(observe(uninterrupted));
  }

  // Interrupted run: stop after `stop_at` inserts, checkpoint through
  // server-state bytes, resume, stream the rest.
  Relation& first_rel = first_db.GetMutable("mon");
  fd::SchemaMonitor first_leg(&first_rel, fds, interval);
  for (size_t t = 0; t < stop_at; ++t) {
    first_rel.AppendRow(stream[t]);
    first_leg.Poll();
  }
  sql::Database db;
  std::vector<ServerMonitorState> monitors;
  std::string err;
  ASSERT_TRUE(DeserializeServerState(
      SerializeServerState(first_db, {{"mon", first_leg.State()}}), &db,
      &monitors, &err))
      << err;
  ASSERT_EQ(monitors.size(), 1u);
  Relation& rel = db.GetMutable("mon");
  fd::SchemaMonitor resumed(&rel, std::move(monitors[0].state));

  ASSERT_TRUE(same(observe(first_leg), observe(resumed)))
      << "restore changed observable state";
  for (size_t t = stop_at; t < stream.size(); ++t) {
    rel.AppendRow(stream[t]);
    resumed.Poll();
    ASSERT_TRUE(same(expect_after[t], observe(resumed)))
        << "divergence at insert " << t << " (stop_at=" << stop_at
        << ", interval=" << interval << ")";
  }
  // Full drift logs agree event-for-event.
  ASSERT_EQ(resumed.drift_log().size(), uninterrupted.drift_log().size());
  for (size_t i = 0; i < resumed.drift_log().size(); ++i) {
    EXPECT_EQ(resumed.drift_log()[i].fd_index,
              uninterrupted.drift_log()[i].fd_index);
    EXPECT_EQ(resumed.drift_log()[i].tuple_count,
              uninterrupted.drift_log()[i].tuple_count);
    EXPECT_EQ(resumed.drift_log()[i].measures.confidence,
              uninterrupted.drift_log()[i].measures.confidence);
  }
}

// Random multi-table catalogs round-trip with their declared FDs.
TEST_P(SnapshotFuzz, DatabaseRoundTrips) {
  util::Rng rng(seed() + 211);
  sql::Database db;
  const size_t tables = 1 + rng.Below(3);
  for (size_t t = 0; t < tables; ++t) {
    Relation rel =
        RandomRelation(rng, "t" + std::to_string(t), rng.Below(60));
    // Declare a random FD on tables with at least 2 attributes.
    const int n = rel.attr_count();
    db.AddRelation(std::move(rel));
    int lhs = static_cast<int>(rng.Below(static_cast<size_t>(n)));
    int rhs = static_cast<int>(rng.Below(static_cast<size_t>(n)));
    if (lhs != rhs) {
      db.DeclareFd("t" + std::to_string(t),
                   fd::Fd(AttrSet::Of({lhs}), AttrSet::Of({rhs}),
                          "fd" + std::to_string(t)));
    }
  }

  sql::Database back;
  std::string err;
  ASSERT_TRUE(DeserializeDatabase(SerializeDatabase(db), &back, &err)) << err;
  ASSERT_EQ(back.TableNames(), db.TableNames());
  for (const auto& name : db.TableNames()) {
    const Relation& a = db.Get(name);
    const Relation& b = back.Get(name);
    ASSERT_EQ(a.tuple_count(), b.tuple_count());
    for (int i = 0; i < a.attr_count(); ++i) {
      ASSERT_EQ(a.column(i).codes(), b.column(i).codes()) << name;
      ASSERT_EQ(a.column(i).dict_size(), b.column(i).dict_size()) << name;
    }
  }
  const auto fa = db.Fds();
  const auto fb = back.Fds();
  ASSERT_EQ(fa.size(), fb.size());
  for (size_t i = 0; i < fa.size(); ++i) {
    EXPECT_EQ(fa[i].table, fb[i].table);
    EXPECT_EQ(fa[i].fd, fb[i].fd);
    EXPECT_EQ(fa[i].fd.label(), fb[i].fd.label());
  }
}

// Random corruption — a bit flip or a truncation at a random offset —
// must always produce a clean error, whichever payload kind it hits.
TEST_P(SnapshotFuzz, RandomCorruptionAlwaysFailsCleanly) {
  util::Rng rng(seed() + 307);
  Relation rel = RandomRelation(rng, "corrupt", 5 + rng.Below(40));
  sql::Database mon_db;
  mon_db.AddRelation(RandomRelation(rng, "monrel", 10));
  fd::SchemaMonitor mon(
      &mon_db.GetMutable("monrel"),
      std::vector<fd::Fd>{},  // the envelope/payload parsing is the target
      3);
  const std::string variants[] = {
      SerializeRelation(rel),
      SerializeServerState(mon_db, {{"monrel", mon.State()}})};
  for (const std::string& clean : variants) {
    for (int trial = 0; trial < 40; ++trial) {
      std::string bytes = clean;
      if (rng.Chance(0.5)) {
        const size_t at = rng.Below(bytes.size());
        bytes[at] = static_cast<char>(
            bytes[at] ^ static_cast<char>(1 << rng.Below(8)));
      } else {
        bytes.resize(rng.Below(bytes.size()));  // strict truncation
      }
      auto rr = DeserializeRelation(bytes);
      EXPECT_FALSE(rr.ok());
      EXPECT_FALSE(rr.error.empty());
      sql::Database db;
      std::vector<ServerMonitorState> monitors;
      std::string err;
      EXPECT_FALSE(DeserializeServerState(bytes, &db, &monitors, &err));
      EXPECT_FALSE(err.empty());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SnapshotFuzz, ::testing::Range(0, 6));

}  // namespace
}  // namespace fdevolve::storage
