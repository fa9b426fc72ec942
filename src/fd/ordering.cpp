#include "fd/ordering.h"

#include <algorithm>

namespace fdevolve::fd {

double ConflictScore(const Fd& fd, const std::vector<Fd>& all) {
  if (all.empty()) return 0.0;
  double sum = 0.0;
  for (const Fd& other : all) {
    if (other == fd) continue;
    int common = fd.AllAttrs().Intersect(other.AllAttrs()).Count();
    int denom = std::max(fd.Size(), other.Size());
    if (denom > 0) sum += static_cast<double>(common) / denom;
  }
  return sum / static_cast<double>(all.size());
}

std::vector<OrderedFd> OrderFds(const relation::Relation& rel,
                                const std::vector<Fd>& fds,
                                const OrderingOptions& opts) {
  // Sequential: a handful of counts per FD, where range-partitioned
  // refine passes cost more than they save.
  query::DistinctEvaluator eval(rel, /*threads=*/1);
  std::vector<OrderedFd> out;
  out.reserve(fds.size());
  for (size_t i = 0; i < fds.size(); ++i) {
    OrderedFd o;
    o.fd = fds[i];
    o.measures = ComputeMeasures(eval, fds[i]);
    o.conflict = opts.include_conflict ? ConflictScore(fds[i], fds) : 0.0;
    o.rank = (o.measures.inconsistency() + o.conflict) / 2.0;
    o.original_index = i;
    out.push_back(std::move(o));
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const OrderedFd& a, const OrderedFd& b) {
                     if (a.rank != b.rank) return a.rank > b.rank;
                     return a.original_index < b.original_index;
                   });
  return out;
}

}  // namespace fdevolve::fd
