// Hash utilities shared by the relation / query / fd layers.
#pragma once

#include <cstddef>
#include <cstdint>

namespace fdevolve::util {

/// 64-bit finalizer (splitmix64) — used to decorrelate small integer keys
/// before they enter open-addressing tables.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Order-dependent combiner in the boost::hash_combine family, widened
/// to 64 bits.
inline uint64_t HashCombine(uint64_t seed, uint64_t v) {
  return seed ^ (Mix64(v) + 0x9e3779b97f4a7c15ULL + (seed << 12) + (seed >> 4));
}

}  // namespace fdevolve::util
