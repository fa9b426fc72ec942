#include "clustering/entropy.h"

#include <cmath>
#include <memory_resource>
#include <stdexcept>
#include <unordered_map>

namespace fdevolve::clustering {
namespace {

/// Calls `visit(key, n_{k,k'})` for every joint count over the two id
/// vectors, key = (k << 32) | k'. The map's nodes come from one arena
/// released in bulk at return instead of a heap allocation and free per
/// pair. The visiting order depends only on the hash, the rehash policy,
/// the reserve and the insertion order, none of which the arena changes,
/// so every sum over it is bit-identical to the heap-allocated map's.
template <typename Visit>
void ForEachJointCount(const Clustering& a, const Clustering& b,
                       Visit&& visit) {
  if (a.tuple_count() != b.tuple_count()) {
    throw std::invalid_argument("entropy: clusterings over different instances");
  }
  std::pmr::monotonic_buffer_resource arena;
  std::pmr::unordered_map<uint64_t, size_t> joint(&arena);
  joint.reserve(a.cluster_count() + b.cluster_count());
  for (size_t t = 0; t < a.tuple_count(); ++t) {
    uint64_t key =
        (static_cast<uint64_t>(a.cluster_of(t)) << 32) | b.cluster_of(t);
    ++joint[key];
  }
  for (const auto& [key, cnt] : joint) visit(key, cnt);
}

}  // namespace

double ConditionalEntropy(const Clustering& c, const Clustering& given) {
  const double n = static_cast<double>(c.tuple_count());
  if (n == 0) return 0.0;
  double h = 0.0;
  ForEachJointCount(c, given, [&](uint64_t key, size_t cnt) {
    uint32_t given_id = static_cast<uint32_t>(key & 0xffffffffULL);
    double p_joint = static_cast<double>(cnt) / n;
    double p_given = static_cast<double>(given.sizes()[given_id]) / n;
    // P(k|k') = p_joint / p_given.
    h -= p_joint * std::log(p_joint / p_given);
  });
  // Clamp tiny negative round-off.
  return h < 0.0 ? 0.0 : h;
}

double Entropy(const Clustering& c) {
  const double n = static_cast<double>(c.tuple_count());
  if (n == 0) return 0.0;
  double h = 0.0;
  for (size_t sz : c.sizes()) {
    if (sz == 0) continue;
    double p = static_cast<double>(sz) / n;
    h -= p * std::log(p);
  }
  return h < 0.0 ? 0.0 : h;
}

double VariationOfInformation(const Clustering& a, const Clustering& b) {
  return ConditionalEntropy(a, b) + ConditionalEntropy(b, a);
}

double MutualInformation(const Clustering& a, const Clustering& b) {
  const double n = static_cast<double>(a.tuple_count());
  if (n == 0) return 0.0;
  double mi = 0.0;
  ForEachJointCount(a, b, [&](uint64_t key, size_t cnt) {
    uint32_t ida = static_cast<uint32_t>(key >> 32);
    uint32_t idb = static_cast<uint32_t>(key & 0xffffffffULL);
    double p_joint = static_cast<double>(cnt) / n;
    double pa = static_cast<double>(a.sizes()[ida]) / n;
    double pb = static_cast<double>(b.sizes()[idb]) / n;
    mi += p_joint * std::log(p_joint / (pa * pb));
  });
  return mi < 0.0 ? 0.0 : mi;
}

}  // namespace fdevolve::clustering
