// Domain scenario 2: the evolving-reality loop of §1.
//
// A live address table starts consistent with its FDs. A stream of inserts
// simulates a policy change (area-code splits, like the running example's
// motivation): the monitor detects the drift, proposes constraint
// evolutions, and the "designer" (here: an auto-accept policy preferring
// goodness ~ 0) accepts one. Consistency is restored without touching data.
//
//   $ ./schema_monitor_demo
#include <iostream>

#include "fd/repair_report.h"
#include "fd/schema_monitor.h"
#include "util/rng.h"

int main() {
  using namespace fdevolve;
  using relation::DataType;
  using relation::Value;

  relation::Schema schema({{"district", DataType::kString},
                           {"region", DataType::kString},
                           {"municipal", DataType::kString},
                           {"areacode", DataType::kInt64},
                           {"zip", DataType::kString}});

  // Seed data: one area code per (district, region).
  relation::Relation addresses("addresses", schema);
  const char* districts[] = {"Brookside", "Alexandria", "Riverdale"};
  const char* regions[] = {"Granville", "Moore Park", "Lakeview"};
  util::Rng rng(2024);
  for (int i = 0; i < 60; ++i) {
    int d = static_cast<int>(rng.Below(3));
    addresses.AppendRow({districts[d], regions[d],
                       "M" + std::to_string(rng.Below(4) + 4ull * d),
                       static_cast<int64_t>(613 + d),
                       "Z" + std::to_string(rng.Below(30))});
  }

  fd::SchemaMonitor monitor(
      &addresses,
      {fd::Fd::Parse("district, region -> areacode", schema, "F1")},
      /*check_interval=*/10);

  monitor.OnDrift([&](const fd::DriftEvent& ev) {
    std::cout << ">> drift detected at " << ev.tuple_count
              << " tuples: FD #" << ev.fd_index << " confidence fell to "
              << ev.measures.confidence << "\n";
  });

  std::cout << "Monitoring " << monitor.rel().tuple_count()
            << " tuples; FD holds: "
            << (monitor.fds()[0].violated ? "NO" : "yes") << "\n\n";

  // Reality changes: Brookside/Granville is split across two area codes
  // (number-plan exhaustion). Stream the new reality in.
  std::cout << "Streaming inserts with the new numbering plan...\n";
  for (int i = 0; i < 40; ++i) {
    // New municipal areas within Brookside get area code 343.
    bool new_plan = rng.Chance(0.5);
    addresses.AppendRow({"Brookside", "Granville",
                         new_plan ? Value("M_new") : Value("M0"),
                         static_cast<int64_t>(new_plan ? 343 : 613),
                         "Z" + std::to_string(rng.Below(30))});
    monitor.Poll();
  }

  auto violated = monitor.CheckNow();
  if (violated.empty()) {
    std::cout << "No drift detected (unexpected for this script).\n";
    return 1;
  }

  std::cout << "\nProposing constraint evolutions (the designer loop):\n";
  fd::RepairOptions opts;
  opts.mode = fd::SearchMode::kTopK;
  opts.top_k = 3;
  auto suggestions = monitor.SuggestRepairs(opts);
  for (const auto& s : suggestions) {
    std::cout << fd::DescribeResult(s, schema);
  }

  // Auto-accept policy: the top suggestion (best goodness balance).
  for (size_t i = 0; i < suggestions.size(); ++i) {
    if (suggestions[i].found()) {
      monitor.AcceptRepair(violated[i], suggestions[i].repairs[0]);
      std::cout << "\nAccepted evolution: "
                << suggestions[i].repairs[0].repaired.ToString(schema) << "\n";
    }
  }

  std::cout << "FD holds after evolution: "
            << (monitor.CheckNow().empty() ? "yes" : "NO") << "\n";
  std::cout << "Drift events logged: " << monitor.drift_log().size() << "\n";
  return 0;
}
