// Kernel-tier microbench + the cross-tier identity gate.
//
// For every kernel tier this host can run (baseline scalar is always
// there; AVX2 when detected), measures ns/tuple for the dispatched inner
// loop — dense gather refine — plus the fused-chain vs per-level-chain
// comparison that motivates segment fusion, and ms per pass of the
// count-only shapes: one level from a base and three fused levels, on the
// clean relation and on its tombstoned twin (the masked passes).
//
// The bench doubles as a correctness gate: the AVX2 tier, over clean AND
// tombstoned relations, must produce bit-identical group ids, group
// counts, and FD measure doubles to the baseline scalar tier, on dense
// chains (one level and three, materializing and count-only) and on a
// chain past the dense limit, which finishes on a stripped partition after
// the tier's dense prefix. Any divergence makes the process exit non-zero,
// so CI can run this (FDEVOLVE_BENCH_FAST=1) as a smoke step.
//
// Results land in BENCH_kernels.json in the working directory; validate
// with scripts/check_bench_json.py.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "bench_common.h"
#include "datagen/synthetic.h"
#include "fd/measures.h"
#include "query/group_ids.h"
#include "query/kernels.h"
#include "util/cpu_features.h"
#include "util/table_printer.h"
#include "util/timer.h"

namespace {

using namespace fdevolve;

constexpr int kReps = 5;  ///< best-of to damp scheduler noise

int g_gate_failures = 0;

void Gate(bool ok, const std::string& what) {
  if (!ok) {
    ++g_gate_failures;
    std::cerr << "IDENTITY GATE FAIL: " << what << "\n";
  }
}

std::string Fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

/// Best-of-kReps wall time of `fn`, in milliseconds.
template <typename Fn>
double BestMs(Fn fn) {
  double best = 0.0;
  for (int r = 0; r < kReps; ++r) {
    util::Timer timer;
    fn();
    const double ms = timer.ElapsedMs();
    if (r == 0 || ms < best) best = ms;
  }
  return best;
}

struct TierNumbers {
  double dense_ns = 0.0;   ///< ns/tuple, dense gather refine
  double fused_ms = 0.0;   ///< 3-attr GroupBy, fused chain
};

}  // namespace

int main() {
  const bool fast = bench::FastMode();
  const size_t n = fast ? 200000 : 1000000;

  datagen::SyntheticSpec spec;
  spec.n_attrs = 8;
  spec.n_tuples = n;
  spec.repair_length = 2;
  spec.seed = 99;
  const auto rel = datagen::MakeSynthetic(spec);

  // Tombstoned twin: delete a deterministic ~10% so the live-masked
  // count-only path is part of the gate, plus every row holding row 0's
  // (attribute 0, attribute 3) pair (~0.1%), so some counted groups hold
  // only dead rows and a pass that ignored the mask would count them.
  auto rel_del = rel;
  const auto& col0 = rel.column(0);
  const auto& col3 = rel.column(3);
  for (size_t t = 0; t < n; ++t) {
    if (t % 10 == 3 ||
        (col0.code(t) == col0.code(0) && col3.code(t) == col3.code(0))) {
      rel_del.DeleteRow(t);
    }
  }

  const auto dense_attrs = relation::AttrSet::Of({0, 2, 3});
  // Radix past the dense limit: the chain runs a dense prefix on the
  // active tier, then finishes on a stripped partition.
  const auto wide_attrs = relation::AttrSet::Of({0, 1, 4, 5});
  const fd::Fd fd(relation::AttrSet::Of({0, 2}), relation::AttrSet::Of({3}));

  // --- Baseline scalar references for the identity gate. ---
  query::kernels::ForceTier(util::CpuTier::kBaseline);
  const auto ref_group = query::GroupBy(rel, dense_attrs);
  const size_t ref_count = query::GroupCountBy(rel, dense_attrs);
  const auto ref_wide = query::GroupBy(rel, wide_attrs);
  const size_t ref_del = query::GroupCountBy(rel_del, dense_attrs);
  const auto ref_measures = fd::ComputeMeasures(rel, fd);
  const auto base0 = query::GroupBy(rel, relation::AttrSet::Of({0}));
  const auto ref_refine = query::RefineBy(rel, base0, 3);
  const auto base0_del = query::GroupBy(rel_del, relation::AttrSet::Of({0}));
  const auto attr3 = relation::AttrSet::Of({3});
  const size_t ref_count1 = query::RefineCountBy(rel, base0, attr3);
  const size_t ref_count1_del = query::RefineCountBy(rel_del, base0_del, attr3);

  const auto tiers = query::kernels::SupportedTiers();
  std::map<std::string, TierNumbers> results;
  double baseline_dense = 0.0;
  double fused_ms_best_tier = 0.0, per_level_ms_best_tier = 0.0;

  util::TablePrinter table("kernel tiers (" + std::to_string(n) +
                           " tuples, ns/tuple, best of " +
                           std::to_string(kReps) + ")");
  table.SetHeader({"tier", "dense", "fused 3-attr ms"});
  // Count-only shapes, ms per pass: one row per shape, one column per tier.
  const std::vector<std::string> count_shapes = {
      "RefineCountBy 1 attr", "RefineCountBy 1 attr, tombstoned",
      "GroupCountBy 3 attrs", "GroupCountBy 3 attrs, tombstoned"};
  std::vector<std::vector<std::string>> count_rows;
  for (const auto& shape : count_shapes) count_rows.push_back({shape});

  for (util::CpuTier tier : tiers) {
    query::kernels::ForceTier(tier);
    const std::string name = util::CpuTierName(tier);
    TierNumbers nums;

    // Dense gather refine: one-column refinement, radix |π0| * stride(3).
    query::RefineScratch scratch;
    nums.dense_ns =
        BestMs([&] { query::RefineBy(rel, base0, 3, scratch); }) * 1e6 / n;

    // Fused chain (the engine's one-sweep segment) vs the per-level chain
    // it replaced: three sequential RefineBy passes over the same levels.
    nums.fused_ms =
        BestMs([&] { query::GroupBy(rel, dense_attrs, scratch); });
    const double per_level_ms = BestMs([&] {
      auto g = query::GroupBy(rel, relation::AttrSet::Of({0}), scratch);
      g = query::RefineBy(rel, g, 2, scratch);
      g = query::RefineBy(rel, g, 3, scratch);
    });

    const double count_ms[] = {
        BestMs([&] { query::RefineCountBy(rel, base0, attr3, scratch); }),
        BestMs([&] {
          query::RefineCountBy(rel_del, base0_del, attr3, scratch);
        }),
        BestMs([&] { query::GroupCountBy(rel, dense_attrs, scratch); }),
        BestMs([&] { query::GroupCountBy(rel_del, dense_attrs, scratch); })};
    for (size_t i = 0; i < count_rows.size(); ++i) {
      count_rows[i].push_back(Fmt(count_ms[i]));
    }

    if (tier == util::CpuTier::kBaseline) baseline_dense = nums.dense_ns;
    // The last (= highest) tier's chain numbers headline the JSON.
    fused_ms_best_tier = nums.fused_ms;
    per_level_ms_best_tier = per_level_ms;

    table.AddRow({name, Fmt(nums.dense_ns), Fmt(nums.fused_ms)});
    results[name] = nums;

    // --- Identity gate: this tier vs baseline. ---
    const std::string ctx = name + ": ";
    const auto g = query::GroupBy(rel, dense_attrs, scratch);
    Gate(g.ids == ref_group.ids && g.group_count == ref_group.group_count,
         ctx + "GroupBy ids/count");
    Gate(query::GroupCountBy(rel, dense_attrs, scratch) == ref_count,
         ctx + "GroupCountBy");
    const auto gw = query::GroupBy(rel, wide_attrs, scratch);
    Gate(gw.ids == ref_wide.ids && gw.group_count == ref_wide.group_count,
         ctx + "GroupBy (stripped) ids/count");
    Gate(query::GroupCountBy(rel, wide_attrs, scratch) == ref_wide.group_count,
         ctx + "GroupCountBy (stripped)");
    Gate(query::GroupCountBy(rel_del, dense_attrs, scratch) == ref_del,
         ctx + "GroupCountBy (tombstoned)");
    const auto r = query::RefineBy(rel, base0, 3, scratch);
    Gate(r.ids == ref_refine.ids && r.group_count == ref_refine.group_count,
         ctx + "RefineBy ids/count");
    Gate(query::RefineCountBy(rel, base0, attr3, scratch) == ref_count1,
         ctx + "RefineCountBy 1 attr");
    Gate(query::RefineCountBy(rel_del, base0_del, attr3, scratch) ==
             ref_count1_del,
         ctx + "RefineCountBy 1 attr (tombstoned)");
    const auto m = fd::ComputeMeasures(rel, fd);
    Gate(m.confidence == ref_measures.confidence &&
             m.goodness == ref_measures.goodness,
         ctx + "measure doubles");
  }
  query::kernels::ForceTier(query::kernels::DetectedTier());

  table.Print(std::cout);
  util::TablePrinter counts("count-only shapes (" + std::to_string(n) +
                            " tuples, ms per pass, best of " +
                            std::to_string(kReps) + ")");
  std::vector<std::string> count_header = {"shape"};
  for (util::CpuTier tier : tiers) {
    count_header.push_back(util::CpuTierName(tier));
  }
  counts.SetHeader(count_header);
  for (auto& row : count_rows) counts.AddRow(std::move(row));
  counts.Print(std::cout);
  const std::string best = util::CpuTierName(tiers.back());
  std::cout << "detected: "
            << util::CpuTierName(query::kernels::DetectedTier())
            << ", tiers tested: " << tiers.size()
            << (fast ? " (FDEVOLVE_BENCH_FAST)" : "") << "\n";

  const TierNumbers& top = results[best];
  std::ofstream json("BENCH_kernels.json");
  json << "{\n"
       << "  \"tuples\": " << n << ",\n"
       << "  \"tiers_tested\": " << tiers.size() << ",\n"
       << "  \"baseline\": {\n"
       << "    \"dense_ns_per_tuple\": " << baseline_dense << "\n"
       << "  },\n"
       << "  \"best_tier\": {\n"
       << "    \"name\": \"" << best << "\",\n"
       << "    \"dense_ns_per_tuple\": " << top.dense_ns << ",\n"
       << "    \"dense_speedup\": "
       << (top.dense_ns > 0 ? baseline_dense / top.dense_ns : 0.0) << "\n"
       << "  },\n"
       << "  \"fused_chain_ms\": " << fused_ms_best_tier << ",\n"
       << "  \"per_level_chain_ms\": " << per_level_ms_best_tier << ",\n"
       << "  \"fused_speedup\": "
       << (fused_ms_best_tier > 0
               ? per_level_ms_best_tier / fused_ms_best_tier
               : 0.0)
       << ",\n"
       << "  \"identity_gate_failures\": " << g_gate_failures << ",\n"
       << "  \"fast\": " << (fast ? "true" : "false") << "\n"
       << "}\n";

  if (g_gate_failures != 0) {
    std::cerr << "FAIL: " << g_gate_failures
              << " cross-tier identity checks diverged from baseline\n";
    return 1;
  }
  std::cout << "identity gate passed: every tier matches baseline scalar "
               "bit-for-bit\n";
  return 0;
}
