#include "discovery/data_repair.h"

#include <algorithm>
#include <unordered_map>

#include "query/group_ids.h"

namespace fdevolve::discovery {

DataRepairResult RepairByDeletion(const relation::Relation& rel,
                                  const fd::Fd& fd) {
  relation::RequireNoTombstones(rel, "discovery::RepairByDeletion");
  DataRepairResult result;
  const size_t n = rel.tuple_count();
  if (n == 0) return result;

  query::RefineScratch scratch;
  query::Grouping gx = query::GroupBy(rel, fd.lhs(), scratch);
  query::Grouping gxy = query::RefineBy(rel, gx, fd.rhs(), scratch);

  // Per X-cluster: size of each XY-class; keep the largest one.
  std::vector<size_t> xy_size(gxy.group_count, 0);
  for (size_t t = 0; t < n; ++t) ++xy_size[gxy.ids[t]];

  std::vector<uint32_t> best_xy_of_x(gx.group_count, 0);
  std::vector<size_t> best_size_of_x(gx.group_count, 0);
  for (size_t t = 0; t < n; ++t) {
    uint32_t x = gx.ids[t];
    uint32_t xy = gxy.ids[t];
    if (xy_size[xy] > best_size_of_x[x]) {
      best_size_of_x[x] = xy_size[xy];
      best_xy_of_x[x] = xy;
    }
  }

  for (size_t t = 0; t < n; ++t) {
    if (gxy.ids[t] != best_xy_of_x[gx.ids[t]]) {
      result.deleted.push_back(t);
    }
  }
  result.kept = n - result.deleted.size();
  result.loss_fraction =
      static_cast<double>(result.deleted.size()) / static_cast<double>(n);
  return result;
}

relation::Relation ApplyDeletion(const relation::Relation& rel,
                                 const std::vector<size_t>& deleted) {
  relation::Relation out(rel.name() + "_repaired", rel.schema());
  size_t d = 0;
  for (size_t t = 0; t < rel.tuple_count(); ++t) {
    if (d < deleted.size() && deleted[d] == t) {
      ++d;
      continue;
    }
    std::vector<relation::Value> row;
    row.reserve(static_cast<size_t>(rel.attr_count()));
    for (int a = 0; a < rel.attr_count(); ++a) row.push_back(rel.Get(t, a));
    out.AppendRow(row);
  }
  return out;
}

DataRepairResult RepairAllByDeletion(const relation::Relation& rel,
                                     const std::vector<fd::Fd>& fds,
                                     int max_rounds) {
  relation::RequireNoTombstones(rel, "discovery::RepairAllByDeletion");
  // Track surviving original indices so the reported deletion set refers
  // to the input relation.
  std::vector<size_t> original(rel.tuple_count());
  for (size_t t = 0; t < rel.tuple_count(); ++t) original[t] = t;

  relation::Relation current = ApplyDeletion(rel, {});
  DataRepairResult result;

  for (int round = 0; round < max_rounds; ++round) {
    bool any = false;
    for (const auto& f : fds) {
      DataRepairResult step = RepairByDeletion(current, f);
      if (step.deleted.empty()) continue;
      any = true;
      for (size_t local : step.deleted) {
        result.deleted.push_back(original[local]);
      }
      // Rebuild the survivor map and instance.
      std::vector<size_t> surviving;
      surviving.reserve(original.size() - step.deleted.size());
      size_t d = 0;
      for (size_t t = 0; t < original.size(); ++t) {
        if (d < step.deleted.size() && step.deleted[d] == t) {
          ++d;
          continue;
        }
        surviving.push_back(original[t]);
      }
      original = std::move(surviving);
      current = ApplyDeletion(current, step.deleted);
    }
    if (!any) break;
  }

  std::sort(result.deleted.begin(), result.deleted.end());
  result.kept = rel.tuple_count() - result.deleted.size();
  result.loss_fraction =
      rel.tuple_count() == 0
          ? 0.0
          : static_cast<double>(result.deleted.size()) /
                static_cast<double>(rel.tuple_count());
  return result;
}

size_t CountViolatingPairs(const relation::Relation& rel, const fd::Fd& fd) {
  relation::RequireNoTombstones(rel, "discovery::CountViolatingPairs");
  const size_t n = rel.tuple_count();
  if (n == 0) return 0;
  query::RefineScratch scratch;
  query::Grouping gx = query::GroupBy(rel, fd.lhs(), scratch);
  query::Grouping gxy = query::RefineBy(rel, gx, fd.rhs(), scratch);

  // Pairs sharing X minus pairs sharing XY.
  std::vector<size_t> x_size(gx.group_count, 0);
  std::vector<size_t> xy_size(gxy.group_count, 0);
  for (size_t t = 0; t < n; ++t) {
    ++x_size[gx.ids[t]];
    ++xy_size[gxy.ids[t]];
  }
  auto pairs = [](size_t k) { return k * (k - 1) / 2; };
  size_t same_x = 0;
  for (size_t k : x_size) same_x += pairs(k);
  size_t same_xy = 0;
  for (size_t k : xy_size) same_xy += pairs(k);
  return same_x - same_xy;
}

}  // namespace fdevolve::discovery
