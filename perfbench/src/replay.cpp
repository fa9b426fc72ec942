#include "replay.h"

#include <cstdio>
#include <stdexcept>
#include <variant>

#include "clustering/eb_repair.h"
#include "fd/candidate_ranking.h"
#include "fd/planner.h"
#include "query/column_stats.h"
#include "query/distinct.h"
#include "sql/engine.h"
#include "sql/parser.h"
#include "storage/snapshot.h"

namespace fdbench {

namespace fd = fdevolve::fd;
namespace sql = fdevolve::sql;
namespace storage = fdevolve::storage;
using fdevolve::relation::AttrSet;
using fdevolve::relation::Relation;

std::string ReplayState::Serialize() const {
  std::vector<storage::ServerMonitorState> monitors;
  std::vector<storage::ServerSampledMonitorState> samples;
  for (const auto& [name, m] : exact) monitors.push_back({name, m->State()});
  for (const auto& [name, m] : sampled) samples.push_back({name, m->State()});
  return storage::SerializeServerState(db, monitors, samples);
}

namespace {

/// Mirrors Service's DECLARE FD path: the first exact DECLARE creates the
/// table's monitor (EVERY n, default 1), a SAMPLE clause routes the FD to
/// the table's one sampled monitor.
void Declare(ReplayState& st, const sql::DeclareFdStatement& d) {
  Relation* rel = &st.db.GetMutable(d.table);
  const auto& schema = rel->schema();
  fd::Fd f(schema.Resolve(d.lhs), schema.Resolve(d.rhs));
  size_t interval = d.check_interval != 0 ? d.check_interval : 1;
  st.db.DeclareFd(d.table, f);
  if (d.sample_size != 0) {
    auto& m = st.sampled[d.table];
    if (!m) {
      m = std::make_unique<fd::SampledSchemaMonitor>(
          rel, std::vector<fd::Fd>{}, interval, d.sample_size, d.sample_seed);
    }
    m->AddFd(std::move(f));
    return;
  }
  auto& m = st.exact[d.table];
  if (!m) {
    m = std::make_unique<fd::SchemaMonitor>(rel, std::vector<fd::Fd>{},
                                            interval, /*threads=*/1);
  }
  m->AddFd(std::move(f));
}

}  // namespace

std::unique_ptr<ReplayState> ReplayJournals(const std::string& snapshot,
                                            const Journals& journals,
                                            Tracer& tracer,
                                            ReplayTimings* timings,
                                            long drop_line) {
  auto st = std::make_unique<ReplayState>();
  std::vector<storage::ServerMonitorState> monitors;
  std::vector<storage::ServerSampledMonitorState> samples;
  std::string error;
  if (!storage::DeserializeServerState(snapshot, &st->db, &monitors, &error,
                                       &samples)) {
    throw std::runtime_error("replay: cannot load set-up snapshot: " + error);
  }
  if (!monitors.empty() || !samples.empty()) {
    throw std::runtime_error("replay: set-up snapshot carries monitors");
  }
  ReplayTimings local;
  ReplayTimings& t = timings ? *timings : local;
  long index = -1;
  for (const auto& [table, lines] : journals) {
    Relation* rel = &st->db.GetMutable(table);
    for (const std::string& line : lines) {
      if (++index == drop_line) continue;
      Scope stmt_span(tracer, "server.statement", index);
      sql::Statement stmt;
      {
        int64_t id = tracer.Begin("sql.parse", index);
        Clock::time_point t0 = Clock::now();
        stmt = sql::ParseStatement(line);
        t.parse_us.push_back(MicrosBetween(t0, Clock::now()));
        tracer.End(id);
      }
      bool mutation = false;
      if (const auto* d = std::get_if<sql::DeclareFdStatement>(&stmt)) {
        Scope s(tracer, "fd.declare", index);
        Declare(*st, *d);
        continue;
      }
      if (const auto* ins = std::get_if<sql::InsertStatement>(&stmt)) {
        int64_t id = tracer.Begin("sql.insert", index);
        Clock::time_point t0 = Clock::now();
        sql::Execute(*ins, st->db);
        t.insert_us.push_back(MicrosBetween(t0, Clock::now()));
        tracer.End(id);
      } else if (const auto* del = std::get_if<sql::DeleteStatement>(&stmt)) {
        t.rows_examined += rel->live_count();
        int64_t id = tracer.Begin("sql.delete", index);
        Clock::time_point t0 = Clock::now();
        t.rows_changed += sql::Execute(*del, st->db);
        t.delete_us.push_back(MicrosBetween(t0, Clock::now()));
        tracer.End(id);
        mutation = true;
      } else if (const auto* upd = std::get_if<sql::UpdateStatement>(&stmt)) {
        t.rows_examined += rel->live_count();
        int64_t id = tracer.Begin("sql.update", index);
        Clock::time_point t0 = Clock::now();
        t.rows_changed += sql::Execute(*upd, st->db);
        t.update_us.push_back(MicrosBetween(t0, Clock::now()));
        tracer.End(id);
        mutation = true;
      } else {
        throw std::runtime_error("replay: unexpected journal statement: " +
                                 line);
      }
      if (mutation && rel->tuple_count() >= kCompactMinRows &&
          rel->dead_count() * 2 >= rel->tuple_count()) {
        int64_t id = tracer.Begin("relation.compact", index);
        Clock::time_point t0 = Clock::now();
        rel->Compact();
        t.compact_ms.push_back(MicrosBetween(t0, Clock::now()) / 1000.0);
        tracer.End(id);
      }
      if (auto it = st->exact.find(table); it != st->exact.end()) {
        int64_t id = tracer.Begin("fd.poll", index);
        Clock::time_point t0 = Clock::now();
        it->second->Poll();
        t.poll_us.push_back(MicrosBetween(t0, Clock::now()));
        tracer.End(id);
      }
      if (auto it = st->sampled.find(table); it != st->sampled.end()) {
        int64_t id = tracer.Begin("fd.sampled_poll", index);
        Clock::time_point t0 = Clock::now();
        it->second->Poll();
        t.sampled_poll_us.push_back(MicrosBetween(t0, Clock::now()));
        tracer.End(id);
      }
    }
  }
  return st;
}

namespace {

std::string Hex(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

std::string Fingerprint(const fd::RepairResult& r,
                        const fdevolve::relation::Schema& schema) {
  std::string out = r.original.ToString(schema) + " c=" +
                    Hex(r.original_measures.confidence) +
                    (r.already_exact ? " exact" : "") + " {";
  for (const auto& rep : r.repairs) {
    out += " +" + schema.Describe(rep.added) +
           " c=" + Hex(rep.measures.confidence) +
           " g=" + std::to_string(rep.measures.goodness);
  }
  return out + " }";
}

void AddStats(const fd::SearchStats& s, fd::SearchStats* total) {
  total->candidates_evaluated += s.candidates_evaluated;
  total->pruned_by_bound += s.pruned_by_bound;
  total->planned_cost_ms += s.planned_cost_ms;
  total->elapsed_ms += s.elapsed_ms;
}

}  // namespace

std::string RunSearchItem(const SearchItem& item, int threads,
                          fd::SearchStats* total, size_t* repairs) {
  fd::RepairOptions opts = item.opts;
  opts.threads = threads;
  const auto& schema = item.rel->schema();
  std::string fp = item.label + ": ";
  if (item.find_all_fds) {
    fd::FindRepairsOutcome out = fd::FindFdRepairs(*item.rel, {item.fd}, opts);
    for (const auto& r : out.results) {
      fp += Fingerprint(r, schema);
      if (total) AddStats(r.stats, total);
      if (repairs) *repairs += r.repairs.size();
    }
    return fp;
  }
  fd::RepairResult r = fd::Extend(*item.rel, item.fd, opts);
  if (total) AddStats(r.stats, total);
  if (repairs) *repairs += r.repairs.size();
  return fp + Fingerprint(r, schema);
}

void MeasureSearchLayers(const std::vector<SearchItem>& items,
                         const std::vector<SearchItem>& rank_items,
                         int threads, Tracer& tracer, Result& result) {
  // query.column_stats: once per distinct relation.
  double stats_ms = 0;
  std::vector<const Relation*> seen;
  for (const auto& it : items) {
    bool dup = false;
    for (const Relation* r : seen) dup |= (r == it.rel);
    if (dup) continue;
    seen.push_back(it.rel);
    Scope s(tracer, "query.column_stats");
    Clock::time_point t0 = Clock::now();
    auto stats = fdevolve::query::ComputeColumnStats(*it.rel);
    stats_ms += MillisSince(t0);
    if (stats.empty()) result.Gate("column_stats_nonempty", false, it.label);
  }
  result.Set("query.column_stats_ms", "ms", stats_ms);

  double plan_ms = 0;
  for (const auto& it : items) {
    Scope s(tracer, "fd.plan");
    Clock::time_point t0 = Clock::now();
    fd::RepairPlan plan = fd::PlanRepair(*it.rel, it.fd, it.opts);
    plan_ms += MillisSince(t0);
    if (plan.live_rows != it.rel->live_count()) {
      result.Gate("plan_live_rows", false, it.label);
    }
  }
  result.Set("fd.plan_ms", "ms", plan_ms);

  // query.distinct_count over the seed candidate sets X∪{A} and X∪{A}∪Y.
  double dc_ms[2] = {0, 0};
  const int widths[2] = {1, threads};
  std::vector<size_t> counts[2];
  for (int w = 0; w < 2; ++w) {
    for (const auto& it : items) {
      AttrSet pool = fd::CandidatePool(*it.rel, it.fd, it.opts.pool);
      for (int a : pool.ToVector()) {
        AttrSet xa = it.fd.lhs();
        xa.Add(a);
        for (const AttrSet& set : {xa, xa.Union(it.fd.rhs())}) {
          Scope s(tracer, w == 0 ? "query.distinct_count_t1"
                                 : "query.distinct_count_tN");
          Clock::time_point t0 = Clock::now();
          counts[w].push_back(fdevolve::query::DistinctCount(
              *it.rel, set, fdevolve::query::DistinctStrategy::kHash,
              widths[w]));
          dc_ms[w] += MillisSince(t0);
        }
      }
    }
  }
  result.Set("query.distinct_count_t1_ms", "ms", dc_ms[0]);
  result.Set("query.distinct_count_tN_ms", "ms", dc_ms[1]);
  result.Set("query.parallel_speedup", "x",
             dc_ms[1] > 0 ? dc_ms[0] / dc_ms[1] : 0);
  result.Gate("distinct_count_threads_identical", counts[0] == counts[1]);

  // fd.extend at 1 and N threads: identical repairs, bit-exact measures.
  std::string fp[2];
  double extend_ms[2] = {0, 0};
  fd::SearchStats stats;
  size_t repairs = 0;
  for (int w = 0; w < 2; ++w) {
    for (const auto& it : items) {
      Scope s(tracer, w == 0 ? "fd.extend_t1" : "fd.extend_tN");
      Clock::time_point t0 = Clock::now();
      fp[w] += RunSearchItem(it, widths[w], w == 1 ? &stats : nullptr,
                             w == 1 ? &repairs : nullptr) +
               "\n";
      extend_ms[w] += MillisSince(t0);
    }
  }
  result.Gate("extend_threads_identical", fp[0] == fp[1]);
  result.Set("fd.extend_t1_ms", "ms", extend_ms[0]);
  result.Set("fd.extend_tN_ms", "ms", extend_ms[1]);
  result.Set("fd.candidates_evaluated", "count",
             static_cast<double>(stats.candidates_evaluated));
  result.Set("fd.pruned_by_bound", "count",
             static_cast<double>(stats.pruned_by_bound));
  result.Set("fd.repairs_found", "count", static_cast<double>(repairs));
  result.Set("fd.useful_eval_ratio", "ratio",
             stats.candidates_evaluated
                 ? static_cast<double>(repairs) /
                       static_cast<double>(stats.candidates_evaluated)
                 : 0);
  result.Set("fd.cost_model_ratio", "ratio",
             stats.elapsed_ms > 0 ? stats.planned_cost_ms / stats.elapsed_ms
                                  : 0);

  double rank_ms = 0;
  for (const auto& it : rank_items) {
    Scope s(tracer, "clustering.rank_eb");
    Clock::time_point t0 = Clock::now();
    auto ranked = fdevolve::clustering::RankEb(
        *it.rel, it.fd, it.opts.pool,
        fdevolve::clustering::EbVariant::kOriginal, threads);
    rank_ms += MillisSince(t0);
    if (ranked.empty()) result.Gate("rank_eb_nonempty", false, it.label);
  }
  result.Set("clustering.rank_eb_ms", "ms", rank_ms);
}

}  // namespace fdbench
