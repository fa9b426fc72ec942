// AVX2 kernel tier: 8-lane dense refinement with vpgatherdd probes.
// Compiled with -mavx2 (per-file flag in src/query/CMakeLists.txt); only
// ever called after runtime detection, so the rest of the binary stays
// portable.
#include "query/kernels.h"

#if defined(FDEVOLVE_X86_KERNELS)

#include <immintrin.h>

#include <cassert>

#include "query/kernels_detail.h"

namespace fdevolve::query::kernels {
namespace {

/// Lane mask (32-bit lanes, all-ones = live) from 8 tombstone bytes.
inline __m256i LiveMask8(const uint8_t* live, size_t t) {
  const __m128i bytes =
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(live + t));
  const __m256i lanes = _mm256_cvtepu8_epi32(bytes);
  return _mm256_cmpgt_epi32(lanes, _mm256_setzero_si256());
}

inline uint32_t MissBits8(__m256i miss) {
  return static_cast<uint32_t>(
      _mm256_movemask_ps(_mm256_castsi256_ps(miss)));
}

/// The dense loop, specialized at compile time by the pass's shape:
///   * kMasked — `a.live` filters the rows (dead lanes are neither
///     bounds-checked nor gathered); the RefineArgs contract makes every
///     masked pass count-only;
///   * kCountOnly — no ids are written (`a.out == nullptr`);
///   * kOneLevel — the key is computed from single-level constants hoisted
///     into locals instead of by a loop over `a.levels`.
/// Every batch constant is a local before the loop and every flag is
/// resolved here, so the loop body re-loads no RefineArgs field and makes
/// no call: the constants stay in registers across iterations. Dense
/// segments guarantee every key fits u32 (radix <= 2^31), so the whole
/// computation stays in 32-bit lanes.
template <bool kMasked, bool kCountOnly, bool kOneLevel>
uint32_t DenseLoop8(const RefineArgs& a, uint32_t* dense) {
  static_assert(kCountOnly || !kMasked, "a masked pass is count-only");
  const uint32_t* const base = a.base_ids;
  const uint8_t* const live = a.live;
  uint32_t* const out = a.out;
  const Level* const levels = a.levels;
  const size_t level_count = a.level_count;
  const Level lv = kOneLevel ? levels[0] : Level{};
  const bool check = base != nullptr && a.base_groups <= 0xffffffffull;
  const __m256i vgroups =
      _mm256_set1_epi32(static_cast<int>(a.base_groups));
  const __m256i vnull =
      _mm256_set1_epi32(static_cast<int>(relation::kNullCode));
  const __m256i vstride = _mm256_set1_epi32(static_cast<int>(lv.stride));
  const __m256i vslot = _mm256_set1_epi32(static_cast<int>(lv.null_slot));
  const __m256i vvacant = _mm256_set1_epi32(-1);

  // One batch's key vector: the base ids (bounds-checked on live lanes),
  // then per level key * stride + the NULL-remapped codes.
  const auto keys_at = [&](size_t t, __m256i livemask) {
    __m256i key = _mm256_setzero_si256();
    if (base != nullptr) {
      key = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(base + t));
      if (check) {
        // id >= groups  <=>  max_u32(id, groups) == id (the unsigned-compare
        // idiom AVX2 affords; groups is exact since it fits u32 here).
        __m256i bad = _mm256_cmpeq_epi32(_mm256_max_epu32(key, vgroups), key);
        if (kMasked) bad = _mm256_and_si256(bad, livemask);
        if (!_mm256_testz_si256(bad, bad)) detail::ThrowBadId();
      }
    }
    const auto fold = [&](__m256i k, const uint32_t* codes, bool has_nulls,
                          __m256i stride, __m256i slot) {
      __m256i c =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(codes + t));
      if (has_nulls) {
        c = _mm256_blendv_epi8(c, slot, _mm256_cmpeq_epi32(c, vnull));
      }
      return _mm256_add_epi32(_mm256_mullo_epi32(k, stride), c);
    };
    if (kOneLevel) return fold(key, lv.codes, lv.has_nulls, vstride, vslot);
    for (size_t j = 0; j < level_count; ++j) {
      const Level& l = levels[j];
      key = fold(key, l.codes, l.has_nulls,
                 _mm256_set1_epi32(static_cast<int>(l.stride)),
                 _mm256_set1_epi32(static_cast<int>(l.null_slot)));
    }
    return key;
  };
  // Dead lanes must not touch memory (their keys are unchecked): the
  // masked gather leaves them at kVacant, and the miss mask drops them.
  const auto gather = [&](__m256i key, __m256i livemask) {
    const int* cells = reinterpret_cast<const int*>(dense);
    return kMasked
               ? _mm256_mask_i32gather_epi32(vvacant, cells, key, livemask, 4)
               : _mm256_i32gather_epi32(cells, key, 4);
  };

  uint32_t fresh = 0;
  size_t t = 0;
  // 2x unrolled: both gathers are in flight before the fixup runs (gather
  // latency hiding). Batch 1's gather may read a stale kVacant for a key
  // batch 0 is about to insert — harmless, the fixup re-reads each missed
  // cell, strictly in tuple order.
  for (; t + 16 <= a.n; t += 16) {
    __m256i live0 = vvacant;  // all lanes live
    __m256i live1 = vvacant;
    if (kMasked) {
      live0 = LiveMask8(live, t);
      live1 = LiveMask8(live, t + 8);
    }
    const __m256i key0 = keys_at(t, live0);
    const __m256i key1 = keys_at(t + 8, live1);
    __m256i id0 = gather(key0, live0);
    __m256i id1 = gather(key1, live1);
    __m256i miss0 = _mm256_cmpeq_epi32(id0, vvacant);
    __m256i miss1 = _mm256_cmpeq_epi32(id1, vvacant);
    if (kMasked) {
      miss0 = _mm256_and_si256(miss0, live0);
      miss1 = _mm256_and_si256(miss1, live1);
    }
    uint32_t bits = MissBits8(miss0) | (MissBits8(miss1) << 8);
    if (bits != 0) {
      // Fixup over the combined 16-lane spill: the miss mask is walked with
      // ctz in lane (= tuple) order, with a per-cell re-read, so duplicates
      // within and across the pair still get first-appearance ids. At high
      // fresh ratios nearly every batch has a miss or three, and a per-lane
      // branch would mispredict on each.
      alignas(32) uint32_t kk[16];
      alignas(32) uint32_t ii[16];
      _mm256_store_si256(reinterpret_cast<__m256i*>(kk), key0);
      _mm256_store_si256(reinterpret_cast<__m256i*>(kk + 8), key1);
      if (!kCountOnly) {
        _mm256_store_si256(reinterpret_cast<__m256i*>(ii), id0);
        _mm256_store_si256(reinterpret_cast<__m256i*>(ii + 8), id1);
      }
      while (bits != 0) {
        const int l = __builtin_ctz(bits);
        bits &= bits - 1;
        const uint32_t cell = kk[l];
        uint32_t cur = dense[cell];
        if (cur == kVacant) {
          cur = fresh++;
          dense[cell] = cur;
        }
        if (!kCountOnly) ii[l] = cur;
      }
      if (!kCountOnly) {
        id0 = _mm256_load_si256(reinterpret_cast<const __m256i*>(ii));
        id1 = _mm256_load_si256(reinterpret_cast<const __m256i*>(ii + 8));
      }
    }
    if (!kCountOnly) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + t), id0);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + t + 8), id1);
    }
  }
  return detail::DenseRefineRange(a, dense, fresh, t);
}

/// Dispatches to the six reachable shapes (a masked pass is count-only).
uint32_t Avx2Dense(const RefineArgs& a, uint32_t* dense) {
  assert(a.live == nullptr || a.out == nullptr);
  const bool one = a.level_count == 1;
  if (a.live != nullptr) {
    return one ? DenseLoop8<true, true, true>(a, dense)
               : DenseLoop8<true, true, false>(a, dense);
  }
  if (a.out == nullptr) {
    return one ? DenseLoop8<false, true, true>(a, dense)
               : DenseLoop8<false, true, false>(a, dense);
  }
  return one ? DenseLoop8<false, false, true>(a, dense)
             : DenseLoop8<false, false, false>(a, dense);
}

}  // namespace

const KernelSet kAvx2Kernels{util::CpuTier::kAvx2, Avx2Dense};

}  // namespace fdevolve::query::kernels

#endif  // FDEVOLVE_X86_KERNELS
