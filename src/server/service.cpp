#include "server/service.h"

#include <stdexcept>
#include <utility>

#include "server/protocol.h"
#include "sql/engine.h"
#include "sql/parser.h"

namespace fdevolve::server {

void Service::SessionRec::Push(const std::string& line) {
  std::lock_guard<std::mutex> lock(push_mutex);
  if (dead || !push) return;
  if (!push(line)) dead = true;
}

Service::Service() : Service(Options()) {}

Service::Service(Options opts) : opts_(std::move(opts)) {}

bool Service::Resume(std::string* error) {
  std::unique_lock cat(catalog_mutex_);
  if (opts_.checkpoint_path.empty()) {
    if (error) *error = "no checkpoint path configured";
    return false;
  }
  sql::Database db;
  std::vector<storage::ServerMonitorState> monitors;
  std::vector<storage::ServerSampledMonitorState> sampled;
  if (!storage::LoadServerSnapshot(opts_.checkpoint_path, &db, &monitors,
                                   error, &sampled)) {
    return false;
  }
  db_ = std::move(db);
  tables_.clear();
  BuildEntries(monitors, sampled);
  return true;
}

void Service::BuildEntries(
    const std::vector<storage::ServerMonitorState>& monitors,
    const std::vector<storage::ServerSampledMonitorState>& sampled) {
  for (const auto& name : db_.TableNames()) {
    auto entry = std::make_unique<TableEntry>();
    entry->rel = &db_.GetMutable(name);
    tables_[name] = std::move(entry);
  }
  for (const auto& m : monitors) {
    TableEntry* entry = tables_.at(m.table).get();
    entry->check_interval = m.state.check_interval;
    entry->monitor = std::make_unique<fd::SchemaMonitor>(entry->rel, m.state);
    InstallDriftCallback(entry, m.table);
  }
  for (const auto& m : sampled) {
    TableEntry* entry = tables_.at(m.table).get();
    entry->sampled_interval = m.state.base.check_interval;
    entry->sampled = std::make_unique<fd::SampledSchemaMonitor>(
        entry->rel, m.state);
    InstallSampledDriftCallback(entry, m.table);
  }
}

Service::SessionId Service::OpenSession(PushFn push) {
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  SessionId id = next_session_++;
  auto rec = std::make_shared<SessionRec>();
  rec->push = std::move(push);
  sessions_[id] = std::move(rec);
  return id;
}

void Service::CloseSession(SessionId id) {
  std::shared_ptr<SessionRec> rec;
  {
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    auto it = sessions_.find(id);
    if (it == sessions_.end()) return;
    rec = std::move(it->second);
    sessions_.erase(it);
  }
  // Drop the sink first so in-flight pushes from other sessions become
  // no-ops, then prune the subscriber lists.
  {
    std::lock_guard<std::mutex> lock(rec->push_mutex);
    rec->dead = true;
    rec->push = nullptr;
  }
  std::shared_lock cat(catalog_mutex_);
  for (auto& [name, entry] : tables_) {
    std::unique_lock table(entry->mutex);
    auto& subs = entry->subscribers;
    for (size_t i = 0; i < subs.size();) {
      if (subs[i] == rec) {
        subs.erase(subs.begin() + static_cast<ptrdiff_t>(i));
      } else {
        ++i;
      }
    }
  }
}

std::shared_ptr<Service::SessionRec> Service::FindSession(SessionId id) {
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second;
}

Service::TableEntry* Service::FindEntry(const std::string& table) const {
  auto it = tables_.find(table);
  if (it == tables_.end()) {
    throw std::invalid_argument("unknown table '" + table + "'");
  }
  return it->second.get();
}

void Service::MaybeCompact(TableEntry* entry) {
  // Deterministic policy: a pure function of the relation's physical
  // state, evaluated after every committed mutation statement. Replaying
  // a table's journal therefore compacts at exactly the same statement
  // boundaries as the live run did — which is what keeps serial replay
  // bit-identical to the concurrent state (group ids and dictionary
  // codes are reassigned at a compaction, so WHEN it happens matters).
  relation::Relation* rel = entry->rel;
  if (rel->tuple_count() >= kCompactMinRows &&
      rel->dead_count() * 2 >= rel->tuple_count()) {
    rel->Compact();
  }
}

void Service::InstallDriftCallback(TableEntry* entry,
                                   const std::string& table) {
  // Invoked by the monitor during Poll(), i.e. under the table's
  // exclusive lock — the subscriber list is stable for the duration and
  // pushes happen in commit order.
  entry->monitor->OnDrift([entry, table](const fd::DriftEvent& ev) {
    const fd::MonitoredFd& mfd = entry->monitor->fds()[ev.fd_index];
    std::string line = FormatDrift(
        table, ev, mfd.fd.ToString(entry->rel->schema()));
    for (const auto& sub : entry->subscribers) sub->Push(line);
  });
}

void Service::InstallSampledDriftCallback(TableEntry* entry,
                                          const std::string& table) {
  // Same critical section as the exact monitor's callback; FormatDrift
  // adds the approx + interval fields for approximate events.
  entry->sampled->OnDrift([entry, table](const fd::DriftEvent& ev) {
    const fd::MonitoredFd& mfd = entry->sampled->fds()[ev.fd_index];
    std::string line = FormatDrift(
        table, ev, mfd.fd.ToString(entry->rel->schema()));
    for (const auto& sub : entry->subscribers) sub->Push(line);
  });
}

Service::Result Service::ExecuteLine(SessionId id, const std::string& line) {
  Result res;
  sql::Statement stmt;
  try {
    stmt = sql::ParseStatement(line);
  } catch (const std::exception& e) {
    res.reply = FormatError(e.what());
    return res;
  }
  try {
    if (const auto* q = std::get_if<sql::CountQuery>(&stmt)) {
      std::shared_lock cat(catalog_mutex_);
      TableEntry* entry = FindEntry(q->table);
      std::shared_lock table(entry->mutex);
      // Disambiguate to the read-only overload (the variant overload
      // would also accept a CountQuery by conversion).
      res.reply =
          FormatOk(sql::Execute(*q, static_cast<const sql::Database&>(db_)));
      return res;
    }
    if (const auto* explain = std::get_if<sql::ExplainRepairStatement>(&stmt)) {
      // Read-only like a SELECT: a shared table lock keeps writers out
      // while the planner computes stats and measures over the live rows.
      std::shared_lock cat(catalog_mutex_);
      TableEntry* entry = FindEntry(explain->table);
      std::shared_lock table(entry->mutex);
      res.reply = FormatPlan(
          sql::Execute(*explain, static_cast<const sql::Database&>(db_)));
      return res;
    }
    if (const auto* ins = std::get_if<sql::InsertStatement>(&stmt)) {
      std::shared_lock cat(catalog_mutex_);
      TableEntry* entry = FindEntry(ins->table);
      std::unique_lock table(entry->mutex);
      uint64_t n = sql::Execute(*ins, db_);
      if (opts_.record_journal) entry->journal.push_back(ins->ToString());
      // Same critical section as the append: the monitor observes the
      // quiescent post-append relation and drift pushes follow commit
      // order (see class comment).
      if (entry->monitor) entry->monitor->Poll();
      if (entry->sampled) entry->sampled->Poll();
      res.reply = FormatOk(n);
      return res;
    }
    if (const auto* del = std::get_if<sql::DeleteStatement>(&stmt)) {
      std::shared_lock cat(catalog_mutex_);
      TableEntry* entry = FindEntry(del->table);
      std::unique_lock table(entry->mutex);
      uint64_t n = sql::Execute(*del, db_);
      if (opts_.record_journal) entry->journal.push_back(del->ToString());
      MaybeCompact(entry);
      if (entry->monitor) entry->monitor->Poll();
      if (entry->sampled) entry->sampled->Poll();
      res.reply = FormatOk(n);
      return res;
    }
    if (const auto* upd = std::get_if<sql::UpdateStatement>(&stmt)) {
      std::shared_lock cat(catalog_mutex_);
      TableEntry* entry = FindEntry(upd->table);
      std::unique_lock table(entry->mutex);
      uint64_t n = sql::Execute(*upd, db_);
      if (opts_.record_journal) entry->journal.push_back(upd->ToString());
      MaybeCompact(entry);
      if (entry->monitor) entry->monitor->Poll();
      if (entry->sampled) entry->sampled->Poll();
      res.reply = FormatOk(n);
      return res;
    }
    if (const auto* create = std::get_if<sql::CreateTableStatement>(&stmt)) {
      std::unique_lock cat(catalog_mutex_);
      sql::Execute(*create, db_);
      auto entry = std::make_unique<TableEntry>();
      entry->rel = &db_.GetMutable(create->table);
      if (opts_.record_journal) entry->journal.push_back(create->ToString());
      tables_[create->table] = std::move(entry);
      res.reply = FormatOk(0);
      return res;
    }
    if (const auto* declare = std::get_if<sql::DeclareFdStatement>(&stmt)) {
      std::unique_lock cat(catalog_mutex_);
      TableEntry* entry = FindEntry(declare->table);
      const relation::Schema& schema = entry->rel->schema();
      // Resolve throws on unknown columns; the Fd constructor rejects
      // overlapping sides — both before any state changes.
      fd::Fd fd(schema.Resolve(declare->lhs), schema.Resolve(declare->rhs));
      if (declare->sample_size != 0) {
        // SAMPLE k [SEED s] routes the FD to the table's sampled monitor
        // (one reservoir per table — interval, capacity, and seed must
        // agree across every sampled DECLARE on it).
        if (!entry->sampled) {
          size_t interval = declare->check_interval != 0
                                ? declare->check_interval
                                : opts_.default_check_interval;
          entry->sampled = std::make_unique<fd::SampledSchemaMonitor>(
              entry->rel, std::vector<fd::Fd>{}, interval,
              declare->sample_size, declare->sample_seed);
          entry->sampled_interval = interval;
          InstallSampledDriftCallback(entry, declare->table);
        } else {
          if (declare->check_interval != 0 &&
              declare->check_interval != entry->sampled_interval) {
            throw std::invalid_argument(
                "sampled monitor on '" + declare->table +
                "' already checks EVERY " +
                std::to_string(entry->sampled_interval) +
                "; one interval per table");
          }
          if (declare->sample_size != entry->sampled->sample_capacity() ||
              declare->sample_seed != entry->sampled->sample_seed()) {
            throw std::invalid_argument(
                "sampled monitor on '" + declare->table +
                "' already uses SAMPLE " +
                std::to_string(entry->sampled->sample_capacity()) + " SEED " +
                std::to_string(entry->sampled->sample_seed()) +
                "; one reservoir per table");
          }
        }
        db_.DeclareFd(declare->table, fd);
        entry->sampled->AddFd(std::move(fd));
        if (opts_.record_journal) {
          entry->journal.push_back(declare->ToString());
        }
        res.reply = FormatOk(0);
        return res;
      }
      if (!entry->monitor) {
        size_t interval = declare->check_interval != 0
                              ? declare->check_interval
                              : opts_.default_check_interval;
        entry->monitor = std::make_unique<fd::SchemaMonitor>(
            entry->rel, std::vector<fd::Fd>{}, interval);
        entry->check_interval = interval;
        InstallDriftCallback(entry, declare->table);
      } else if (declare->check_interval != 0 &&
                 declare->check_interval != entry->check_interval) {
        throw std::invalid_argument(
            "monitor on '" + declare->table + "' already checks EVERY " +
            std::to_string(entry->check_interval) +
            "; one interval per table");
      }
      db_.DeclareFd(declare->table, fd);
      entry->monitor->AddFd(std::move(fd));
      if (opts_.record_journal) entry->journal.push_back(declare->ToString());
      res.reply = FormatOk(0);
      return res;
    }
    if (const auto* sub = std::get_if<sql::SubscribeStatement>(&stmt)) {
      std::shared_ptr<SessionRec> rec = FindSession(id);
      if (!rec) throw std::invalid_argument("unknown session");
      std::shared_lock cat(catalog_mutex_);
      TableEntry* entry = FindEntry(sub->table);
      std::unique_lock table(entry->mutex);
      bool present = false;
      for (const auto& s : entry->subscribers) present |= (s == rec);
      if (!present) entry->subscribers.push_back(std::move(rec));
      res.reply = FormatOk(0);
      return res;
    }
    if (std::get_if<sql::CheckpointStatement>(&stmt)) {
      std::string error;
      if (!SaveCheckpoint(&error)) throw std::runtime_error(error);
      res.reply = FormatOk(0);
      return res;
    }
    // SHUTDOWN: acknowledge, then let the serving layer stop (and
    // checkpoint, when configured).
    res.reply = FormatOk(0);
    res.shutdown = true;
    return res;
  } catch (const std::exception& e) {
    res.reply = FormatError(e.what());
    return res;
  }
}

bool Service::SaveCheckpoint(std::string* error) {
  if (opts_.checkpoint_path.empty()) {
    if (error) *error = "no checkpoint path configured";
    return false;
  }
  // The exclusive catalog lock quiesces every session (all data paths
  // hold it shared), so the snapshot is a consistent cut.
  std::unique_lock cat(catalog_mutex_);
  std::vector<storage::ServerMonitorState> monitors;
  std::vector<storage::ServerSampledMonitorState> sampled;
  for (const auto& [name, entry] : tables_) {
    if (entry->monitor) monitors.push_back({name, entry->monitor->State()});
    if (entry->sampled) sampled.push_back({name, entry->sampled->State()});
  }
  return storage::SaveServerSnapshot(db_, monitors, opts_.checkpoint_path,
                                     error, sampled);
}

std::string Service::SerializeState() const {
  std::unique_lock cat(catalog_mutex_);
  std::vector<storage::ServerMonitorState> monitors;
  std::vector<storage::ServerSampledMonitorState> sampled;
  for (const auto& [name, entry] : tables_) {
    if (entry->monitor) monitors.push_back({name, entry->monitor->State()});
    if (entry->sampled) sampled.push_back({name, entry->sampled->State()});
  }
  return storage::SerializeServerState(db_, monitors, sampled);
}

std::vector<std::string> Service::Journal(const std::string& table) const {
  std::shared_lock cat(catalog_mutex_);
  auto it = tables_.find(table);
  if (it == tables_.end()) return {};
  std::shared_lock tl(it->second->mutex);
  return it->second->journal;
}

std::vector<std::string> Service::TableNames() const {
  std::shared_lock cat(catalog_mutex_);
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, entry] : tables_) names.push_back(name);
  return names;
}

std::vector<fd::DriftEvent> Service::DriftLog(const std::string& table) const {
  std::shared_lock cat(catalog_mutex_);
  auto it = tables_.find(table);
  if (it == tables_.end()) return {};
  std::shared_lock tl(it->second->mutex);
  if (!it->second->monitor) return {};
  return it->second->monitor->drift_log();
}

std::vector<fd::DriftEvent> Service::SampledDriftLog(
    const std::string& table) const {
  std::shared_lock cat(catalog_mutex_);
  auto it = tables_.find(table);
  if (it == tables_.end()) return {};
  std::shared_lock tl(it->second->mutex);
  if (!it->second->sampled) return {};
  return it->second->sampled->drift_log();
}

std::vector<fd::SampledMeasures> Service::SampledEstimates(
    const std::string& table) const {
  std::shared_lock cat(catalog_mutex_);
  auto it = tables_.find(table);
  if (it == tables_.end()) return {};
  std::shared_lock tl(it->second->mutex);
  if (!it->second->sampled) return {};
  return it->second->sampled->estimates();
}

}  // namespace fdevolve::server
