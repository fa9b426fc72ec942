// Cross-module integration: generators -> measures -> ordering -> search ->
// report, exercised the way the examples and benches use the library.
#include <gtest/gtest.h>

#include "datagen/places.h"
#include "datagen/realistic.h"
#include "datagen/synthetic.h"
#include "datagen/tpch.h"
#include "fd/repair_report.h"
#include "fd/repair_search.h"
#include "fd/schema_monitor.h"
#include "relation/csv.h"

namespace fdevolve {
namespace {

TEST(EndToEndTest, PlacesFullPipeline) {
  auto rel = datagen::MakePlaces();
  const auto& s = rel.schema();
  std::vector<fd::Fd> fds = {datagen::PlacesF1(s), datagen::PlacesF2(s),
                             datagen::PlacesF3(s)};
  fd::RepairOptions opts;
  opts.mode = fd::SearchMode::kFirstRepair;
  auto outcome = fd::FindFdRepairs(rel, fds, opts);

  ASSERT_EQ(outcome.results.size(), 3u);
  // Every FD is violated. F1 and F2 are repairable; F3 is NOT — its
  // violating pair (t10, t11) differs only in Street, the consequent, so
  // no antecedent extension can separate the two tuples.
  for (const auto& r : outcome.results) {
    EXPECT_FALSE(r.already_exact);
    if (r.original == datagen::PlacesF3(s)) {
      EXPECT_FALSE(r.found());
      EXPECT_EQ(r.stats.stop_reason, fd::StopReason::kExhausted);
      continue;
    }
    ASSERT_TRUE(r.found()) << r.original.ToString(s);
    // The repaired FD is exact on the instance — verify independently.
    EXPECT_TRUE(fd::Satisfies(rel, r.repairs[0].repaired));
  }
  // The report renders without throwing and mentions every FD.
  std::string report = fd::DescribeOutcome(outcome, s);
  EXPECT_NE(report.find("AreaCode"), std::string::npos);
  EXPECT_NE(report.find("Street"), std::string::npos);
}

TEST(EndToEndTest, CsvRoundTripPreservesRepairBehaviour) {
  // Write Places to CSV, read it back, and check the search finds the same
  // first repair — the persistence layer must not disturb semantics.
  auto rel = datagen::MakePlaces();
  std::ostringstream buf;
  std::string csv_err;
  ASSERT_TRUE(relation::WriteCsv(rel, buf, &csv_err)) << csv_err;
  std::istringstream in(buf.str());
  auto round = relation::ReadCsv(in, "Places2");
  ASSERT_TRUE(round.ok()) << round.error;

  fd::RepairOptions opts;
  opts.mode = fd::SearchMode::kFirstRepair;
  auto before = fd::Extend(rel, datagen::PlacesF1(rel.schema()), opts);
  auto after =
      fd::Extend(*round.relation,
                 datagen::PlacesF1(round.relation->schema()), opts);
  ASSERT_TRUE(before.found());
  ASSERT_TRUE(after.found());
  EXPECT_EQ(before.repairs[0].added, after.repairs[0].added);
}

TEST(EndToEndTest, TpchSmallestScaleRepairsAllViolatedFds) {
  datagen::TpchOptions topts;
  topts.scale = datagen::TpchScale::kSmall;
  topts.scale_divisor = 1000;
  auto db = datagen::MakeTpch(topts);

  fd::RepairOptions opts;
  opts.mode = fd::SearchMode::kFirstRepair;
  opts.max_added_attrs = 3;
  int violated = 0;
  int repaired = 0;
  for (const auto& table : db.tables) {
    fd::Fd f = datagen::TpchTable5Fd(table);
    auto res = fd::Extend(table, f, opts);
    if (res.already_exact) continue;
    ++violated;
    if (res.found()) {
      ++repaired;
      EXPECT_TRUE(fd::Satisfies(table, res.repairs[0].repaired))
          << table.name();
    }
  }
  EXPECT_EQ(violated, 6);  // all but nation and region
  EXPECT_EQ(repaired, 6);  // every violated FD has a planted repair
}

TEST(EndToEndTest, MonitorDriftThenRepairThenStable) {
  // The §1 narrative: constraints hold, reality changes, the designer
  // accepts the suggested evolution, consistency is restored.
  relation::Schema schema({{"district", relation::DataType::kString},
                           {"region", relation::DataType::kString},
                           {"municipal", relation::DataType::kString},
                           {"areacode", relation::DataType::kInt64}});
  relation::Relation places("places_live", schema);
  places.AppendRow({"Brookside", "Granville", "Glendale", int64_t{613}});
  places.AppendRow({"Alexandria", "Moore Park", "NapaHill", int64_t{415}});

  fd::SchemaMonitor mon(&places,
                        {fd::Fd::Parse("district, region -> areacode", schema)});
  EXPECT_FALSE(mon.fds()[0].violated);

  // Reality changes: the same district/region acquires a second area code.
  places.AppendRow({"Brookside", "Granville", "Guildwood", int64_t{515}});
  mon.Poll();
  ASSERT_TRUE(mon.fds()[0].violated);

  fd::RepairOptions opts;
  opts.mode = fd::SearchMode::kFirstRepair;
  auto suggestions = mon.SuggestRepairs(opts);
  ASSERT_EQ(suggestions.size(), 1u);
  ASSERT_TRUE(suggestions[0].found());
  mon.AcceptRepair(0, suggestions[0].repairs[0]);
  EXPECT_FALSE(mon.fds()[0].violated);

  // Inserts consistent with the evolved FD keep it satisfied.
  places.AppendRow({"Brookside", "Granville", "Glendale", int64_t{613}});
  mon.Poll();
  EXPECT_FALSE(mon.fds()[0].violated);
}

TEST(EndToEndTest, RealWorkloadsFirstRepairMatchesExpectedLength) {
  datagen::RealOptions ropts;
  ropts.large_divisor = 100;
  fd::RepairOptions opts;
  opts.mode = fd::SearchMode::kFirstRepair;
  for (const auto& w : datagen::MakeAllRealWorkloads(ropts)) {
    fd::RepairOptions local = opts;
    if (w.rel.name() == "Veterans") {
      // Window the 323-attribute pool as the bench does.
      relation::AttrSet window;
      for (int i = 0; i < 30; ++i) window.Add(i);
      local.pool.restrict_to = window;
    }
    auto res = fd::Extend(w.rel, w.fd, local);
    ASSERT_TRUE(res.found()) << w.rel.name();
    EXPECT_EQ(res.repairs[0].added.Count(), w.expected_repair_length)
        << w.rel.name();
  }
}

TEST(EndToEndTest, DecomposedMultiAttributeConsequent) {
  // F2 : Zip -> City, State decomposes into two FDs whose repairs can
  // differ; the composite FD is exact iff both parts are exact.
  auto rel = datagen::MakePlaces();
  const auto& s = rel.schema();
  fd::Fd f2 = datagen::PlacesF2(s);
  auto parts = f2.Decompose();
  ASSERT_EQ(parts.size(), 2u);

  fd::RepairOptions opts;
  opts.mode = fd::SearchMode::kFirstRepair;
  for (const auto& part : parts) {
    auto res = fd::Extend(rel, part, opts);
    EXPECT_TRUE(res.already_exact || res.found());
  }
  // Repairing the composite also works directly.
  auto res = fd::Extend(rel, f2, opts);
  ASSERT_TRUE(res.found());
  EXPECT_TRUE(fd::Satisfies(rel, res.repairs[0].repaired));
}

}  // namespace
}  // namespace fdevolve
