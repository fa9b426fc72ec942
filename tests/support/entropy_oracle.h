// Oracle for clustering/entropy.h: the joint counts in a heap-allocated
// std::unordered_map, built with the same key, reserve and insertion order
// as the library's arena-backed map and summed in the same order, so the
// library's ConditionalEntropy, VariationOfInformation and
// MutualInformation must match it bit for bit.
#pragma once

#include <cmath>
#include <cstdint>
#include <unordered_map>

#include "clustering/clustering.h"

namespace fdevolve::testsupport {

/// Joint counts n_{k,k'}, keyed (k << 32) | k'.
inline std::unordered_map<uint64_t, size_t> OracleJointCounts(
    const clustering::Clustering& a, const clustering::Clustering& b) {
  std::unordered_map<uint64_t, size_t> joint;
  joint.reserve(a.cluster_count() + b.cluster_count());
  for (size_t t = 0; t < a.tuple_count(); ++t) {
    const uint64_t key =
        (static_cast<uint64_t>(a.cluster_of(t)) << 32) | b.cluster_of(t);
    ++joint[key];
  }
  return joint;
}

/// H(C | C').
inline double OracleConditionalEntropy(const clustering::Clustering& c,
                                        const clustering::Clustering& given) {
  const double n = static_cast<double>(c.tuple_count());
  if (n == 0) return 0.0;
  double h = 0.0;
  for (const auto& [key, cnt] : OracleJointCounts(c, given)) {
    const auto given_id = static_cast<uint32_t>(key & 0xffffffffULL);
    const double p_joint = static_cast<double>(cnt) / n;
    const double p_given = static_cast<double>(given.sizes()[given_id]) / n;
    h -= p_joint * std::log(p_joint / p_given);
  }
  return h < 0.0 ? 0.0 : h;
}

/// VI(C, C') = H(C|C') + H(C'|C).
inline double OracleVariationOfInformation(const clustering::Clustering& a,
                                           const clustering::Clustering& b) {
  return OracleConditionalEntropy(a, b) + OracleConditionalEntropy(b, a);
}

/// I(C; C').
inline double OracleMutualInformation(const clustering::Clustering& a,
                                      const clustering::Clustering& b) {
  const double n = static_cast<double>(a.tuple_count());
  if (n == 0) return 0.0;
  double mi = 0.0;
  for (const auto& [key, cnt] : OracleJointCounts(a, b)) {
    const auto ida = static_cast<uint32_t>(key >> 32);
    const auto idb = static_cast<uint32_t>(key & 0xffffffffULL);
    const double p_joint = static_cast<double>(cnt) / n;
    const double pa = static_cast<double>(a.sizes()[ida]) / n;
    const double pb = static_cast<double>(b.sizes()[idb]) / n;
    mi += p_joint * std::log(p_joint / (pa * pb));
  }
  return mi < 0.0 ? 0.0 : mi;
}

}  // namespace fdevolve::testsupport
