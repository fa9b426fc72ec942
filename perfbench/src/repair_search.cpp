// repair_search: the paper's own evaluation, in-process, no server.
//
// One pass of the suite runs FindFdRepairs (all minimal repairs, depth
// <= 2) over the eight Table 5 FDs on TPC-H at the paper's 1 GB shape
// divided by 10 (lineitem ~600k rows), Extend (first repair) on the
// Table 6 Image and Veterans stand-ins, and clustering::RankEb on a
// Table 7-shaped Veterans slice — all at threads = nproc. The fd and
// query layers, the thread pool and clustering do all the work; server,
// sql and storage do none.
#include <fstream>
#include <sstream>

#include "clustering/eb_repair.h"
#include "datagen/realistic.h"
#include "datagen/tpch.h"
#include "replay.h"
#include "workloads.h"

namespace fdbench {

namespace datagen = fdevolve::datagen;
namespace fd = fdevolve::fd;

namespace {

struct Suite {
  datagen::TpchDatabase tpch;
  std::vector<datagen::RealWorkload> real;  ///< Image, Veterans
  fdevolve::relation::Relation slice{"veterans_slice", {}};
  std::vector<SearchItem> items;
  std::vector<SearchItem> rank_items;
};

std::unique_ptr<Suite> MakeSuite(const Config& cfg) {
  auto s = std::make_unique<Suite>();
  datagen::TpchOptions topts;
  topts.scale = datagen::TpchScale::kLarge;
  topts.scale_divisor = cfg.tiny ? 400 : 10;
  topts.seed = cfg.seed;
  s->tpch = datagen::MakeTpch(topts);
  datagen::RealOptions ropts;
  ropts.large_divisor = cfg.tiny ? 200 : 10;
  ropts.seed = cfg.seed;
  s->real.push_back(datagen::MakeImageWorkload(ropts));
  s->real.push_back(datagen::MakeVeteransWorkload(ropts));
  s->slice = datagen::MakeVeteransSlice(cfg.tiny ? 10 : 30,
                                        cfg.tiny ? 700 : 7000,
                                        /*repairable=*/true, cfg.seed);

  fd::RepairOptions all;
  all.mode = fd::SearchMode::kAllRepairs;
  all.max_added_attrs = 2;
  for (const auto& rel : s->tpch.tables) {
    s->items.push_back(
        {rel.name(), &rel, datagen::TpchTable5Fd(rel), all, true});
  }
  for (const auto& w : s->real) {
    fd::RepairOptions first;
    first.mode = fd::SearchMode::kFirstRepair;
    if (w.rel.name() == "Veterans") {
      // Table 6 windows the NULL-free pool to the first 30 attributes.
      for (int i = 0; i < 30; ++i) first.pool.restrict_to.Add(i);
    }
    s->items.push_back({w.rel.name(), &w.rel, w.fd, first, false});
  }
  s->rank_items.push_back({"veterans_slice", &s->slice,
                           fd::Fd::Parse("X -> Y", s->slice.schema()), {},
                           false});
  return s;
}

std::string Hex(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

/// One pass of the suite; returns its bit-exact fingerprint and, when
/// `item_us` is non-null, appends each item's wall time (items in suite
/// order, ranking items last).
std::string RunPass(const Suite& s, int threads,
                    std::vector<double>* item_us = nullptr) {
  std::string fp;
  for (const auto& it : s.items) {
    Clock::time_point t0 = Clock::now();
    fp += RunSearchItem(it, threads, nullptr, nullptr) + "\n";
    if (item_us) item_us->push_back(MicrosBetween(t0, Clock::now()));
  }
  for (const auto& it : s.rank_items) {
    Clock::time_point t0 = Clock::now();
    auto ranked = fdevolve::clustering::RankEb(
        *it.rel, it.fd, it.opts.pool,
        fdevolve::clustering::EbVariant::kOriginal, threads);
    fp += it.label + ": rank_eb";
    for (const auto& c : ranked) {
      fp += " " + std::to_string(c.attr) + ":" + Hex(c.h_xy_given_xa) + "/" +
            Hex(c.h_a_given_xy);
    }
    fp += "\n";
    if (item_us) item_us->push_back(MicrosBetween(t0, Clock::now()));
  }
  return fp;
}

}  // namespace

void RunRepairSearch(const Config& cfg, Result& result) {
  std::vector<double> setup_s;
  std::unique_ptr<Suite> suite;
  for (int r = 0; r < cfg.setup_repeats; ++r) {
    suite.reset();
    Clock::time_point t0 = Clock::now();
    suite = MakeSuite(cfg);
    setup_s.push_back(SecondsSince(t0));
  }
  result.Median("setup_s", "s", setup_s);
  result.Meta("rows.lineitem",
              static_cast<double>(suite->tpch.Get("lineitem").tuple_count()));
  result.Meta("rows.image", static_cast<double>(suite->real[0].rel.tuple_count()));
  result.Meta("rows.veterans",
              static_cast<double>(suite->real[1].rel.tuple_count()));
  result.Meta("rows.veterans_slice",
              static_cast<double>(suite->slice.tuple_count()));
  result.Meta("loop", "closed: back-to-back suite passes, one process");

  // Warm-up, untimed: one sequential pass (the reference for the
  // thread-identity gate) and one parallel pass, so the thread pool, its
  // scratch buffers and the caches are in place before timing starts.
  const std::string fp_1 = RunPass(*suite, 1);
  const std::string fp_n = RunPass(*suite, cfg.threads);

  // by_item[i][p]: wall time of suite item i in pass p.
  const size_t n_items = suite->items.size() + suite->rank_items.size();
  std::vector<std::vector<double>> by_item(n_items);
  std::vector<double> pass_us;
  bool passes_identical = true;
  Clock::time_point start = Clock::now();
  do {
    std::vector<double> item_us;
    Clock::time_point t0 = Clock::now();
    std::string fp = RunPass(*suite, cfg.threads, &item_us);
    pass_us.push_back(MicrosBetween(t0, Clock::now()));
    for (size_t i = 0; i < n_items; ++i) by_item[i].push_back(item_us[i]);
    passes_identical &= fp == fp_n;
  } while (SecondsSince(start) < cfg.seconds);
  result.Set("peak_rss_mb", "MB", PeakRssMb());
  result.CountOps(pass_us.size(), 0);

  // A pass's typical wall time, as the sum of every item's median over
  // the passes: a slow burst of the host inflates one item of one pass,
  // which the per-item median drops.
  double pass_p50_us = 0;
  for (const auto& samples : by_item) pass_p50_us += Summarize(samples).median;
  double total_us = 0;
  for (double v : pass_us) total_us += v;
  std::vector<double> pass_s;
  for (double v : pass_us) pass_s.push_back(v / 1e6);
  result.Median("repair_s", "s", pass_s);
  result.Set("ops_per_s", "1/s", static_cast<double>(pass_us.size()) /
                                     (total_us / 1e6));
  result.Set("op_p50_us", "us", pass_p50_us);
  result.Set("error_rate", "ratio", 0);

  result.Gate("passes_identical", passes_identical);
  result.Gate("threads_1_vs_N_identical", fp_1 == fp_n);
  if (cfg.write_expected) {
    std::ofstream out(cfg.expected_path, std::ios::trunc);
    out << fp_1;
    result.Gate("expected_written", static_cast<bool>(out.flush()));
  } else if (!cfg.expected_path.empty()) {
    std::ifstream in(cfg.expected_path);
    std::stringstream want;
    want << in.rdbuf();
    result.Gate("matches_expected_repairs", in && want.str() == fp_1,
                "against " + cfg.expected_path);
  }

  if (cfg.trace) {
    Tracer tracer(true);
    MeasureSearchLayers(suite->items, suite->rank_items, cfg.threads, tracer,
                        result);
    tracer.WriteJsonLines(cfg.work_dir + "/spans.jsonl");
  }
}

}  // namespace fdbench
