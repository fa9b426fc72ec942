// SSE4.2 kernel tier: 4-lane dense key computation with scalar probes, and
// a block-batched flat path that precomputes hashes and prefetches probe
// lines ahead. No gathers exist at this level, so the wins are smaller
// than AVX2/AVX-512 — this tier mostly guarantees pre-AVX x86-64 hosts
// still get batched hashing and that the dispatch ladder has no holes.
// Compiled with -msse4.2.
#include "query/kernels.h"

#if defined(FDEVOLVE_X86_KERNELS)

#include <immintrin.h>

#include <algorithm>

#include "query/kernels_detail.h"

namespace fdevolve::query::kernels {
namespace {

constexpr uint32_t kVacant = util::FlatIdTable::kVacant;

uint32_t Sse42Dense(const RefineArgs& a, uint32_t* dense, uint32_t fresh) {
  if (a.live != nullptr) {
    // Tombstoned count-only passes stay scalar at this tier: without
    // masked loads the bookkeeping costs more than the 4-lane math saves.
    return detail::DenseRefineRange(a, dense, fresh, a.lo, a.hi);
  }
  size_t t = a.lo;
  for (; t + 4 <= a.hi; t += 4) {
    __m128i key;
    if (a.base_ids != nullptr) {
      key = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a.base_ids + t));
      if (a.base_groups <= 0xffffffffull) {
        const __m128i vgroups =
            _mm_set1_epi32(static_cast<int>(a.base_groups));
        const __m128i bad =
            _mm_cmpeq_epi32(_mm_max_epu32(key, vgroups), key);
        if (!_mm_testz_si128(bad, bad)) detail::ThrowBadId();
      }
    } else {
      key = _mm_setzero_si128();
    }
    for (size_t j = 0; j < a.level_count; ++j) {
      const Level& lv = a.levels[j];
      __m128i c =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(lv.codes + t));
      if (lv.has_nulls) {
        const __m128i isnull = _mm_cmpeq_epi32(
            c, _mm_set1_epi32(static_cast<int>(relation::kNullCode)));
        c = _mm_blendv_epi8(
            c, _mm_set1_epi32(static_cast<int>(lv.null_slot)), isnull);
      }
      key = _mm_add_epi32(
          _mm_mullo_epi32(key, _mm_set1_epi32(static_cast<int>(lv.stride))),
          c);
    }
    alignas(16) uint32_t kk[4];
    _mm_store_si128(reinterpret_cast<__m128i*>(kk), key);
    for (int l = 0; l < 4; ++l) {
      uint32_t id = dense[kk[l]];
      if (id == kVacant) {
        id = fresh++;
        dense[kk[l]] = id;
      }
      if (a.out != nullptr) a.out[t + static_cast<size_t>(l)] = id;
    }
  }
  return detail::DenseRefineRange(a, dense, fresh, t, a.hi);
}

uint32_t Sse42Flat(const RefineArgs& a, util::FlatIdTable& table,
                   uint32_t fresh) {
  constexpr size_t kBlock = 128;
  constexpr size_t kPrefetchAhead = 8;
  uint64_t keys[kBlock];
  uint64_t hashes[kBlock];
  for (size_t b = a.lo; b < a.hi; b += kBlock) {
    const size_t be = std::min(a.hi, b + kBlock);
    for (size_t t = b; t < be; ++t) {
      if (a.live != nullptr && a.live[t] == 0) {
        keys[t - b] = 0;
        hashes[t - b] = 0;
        continue;
      }
      keys[t - b] = detail::PackedKey(a, t);
      hashes[t - b] = util::FlatIdTable::HashOf(keys[t - b]);
    }
    for (size_t t = b; t < be; ++t) {
      if (a.live != nullptr && a.live[t] == 0) continue;
      if (t + kPrefetchAhead < be) {
        table.PrefetchHash(hashes[t + kPrefetchAhead - b]);
      }
      bool inserted = false;
      const uint32_t id =
          table.FindOrInsertHashed(keys[t - b], hashes[t - b], fresh,
                                   &inserted);
      if (inserted) ++fresh;
      if (a.out != nullptr) a.out[t] = id;
    }
  }
  return fresh;
}

}  // namespace

const KernelSet kSse42Kernels{util::CpuTier::kSse42, Sse42Dense, Sse42Flat};

}  // namespace fdevolve::query::kernels

#endif  // FDEVOLVE_X86_KERNELS
