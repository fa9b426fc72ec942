// AVX2 kernel tier: 8-lane dense refinement with vpgatherdd probes.
// Compiled with -mavx2 (per-file flag in src/query/CMakeLists.txt); only
// ever called after runtime detection, so the rest of the binary stays
// portable.
#include "query/kernels.h"

#if defined(FDEVOLVE_X86_KERNELS)

#include <immintrin.h>

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

/// 8 packed keys for tuples [t, t+8): base-id load + bounds check (live
/// lanes only) + per-level NULL remap and radix accumulate. Dense segments
/// guarantee every key fits u32 (radix <= 2^31), so the whole computation
/// stays in 32-bit lanes.
inline __m256i PackedKeys8(const RefineArgs& a, size_t t, __m256i livemask,
                           bool masked) {
  __m256i key;
  if (a.base_ids != nullptr) {
    key = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a.base_ids + t));
    if (a.base_groups <= 0xffffffffull) {
      // id >= groups  <=>  max_u32(id, groups) == id (the unsigned-compare
      // idiom AVX2 affords; groups is exact since it fits u32 here).
      const __m256i vgroups =
          _mm256_set1_epi32(static_cast<int>(a.base_groups));
      __m256i bad = _mm256_cmpeq_epi32(_mm256_max_epu32(key, vgroups), key);
      if (masked) bad = _mm256_and_si256(bad, livemask);
      if (!_mm256_testz_si256(bad, bad)) detail::ThrowBadId();
    }
  } else {
    key = _mm256_setzero_si256();
  }
  for (size_t j = 0; j < a.level_count; ++j) {
    const Level& lv = a.levels[j];
    __m256i c =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(lv.codes + t));
    if (lv.has_nulls) {
      const __m256i isnull = _mm256_cmpeq_epi32(
          c, _mm256_set1_epi32(static_cast<int>(relation::kNullCode)));
      c = _mm256_blendv_epi8(
          c, _mm256_set1_epi32(static_cast<int>(lv.null_slot)), isnull);
    }
    key = _mm256_add_epi32(
        _mm256_mullo_epi32(key,
                           _mm256_set1_epi32(static_cast<int>(lv.stride))),
        c);
  }
  return key;
}

/// Resolves one batch's miss lanes. Lane order = tuple order, and
/// dense[cell] is re-read per lane, so intra-batch (and, under the 2x
/// unroll, cross-batch) duplicates see the id an earlier lane inserted —
/// first-appearance assignment survives batching. The miss bitmask is
/// walked with ctz instead of a per-lane branch: at high fresh-ratios
/// nearly every batch has a miss or three, and unpredictable per-lane
/// branches dominate a naive loop. `id == nullptr` is the count-only
/// form — no id vector spill/reload.
inline uint32_t FixupMisses8(uint32_t* dense, __m256i key, __m256i* id,
                             uint32_t bits, uint32_t fresh) {
  alignas(32) uint32_t kk[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(kk), key);
  if (id == nullptr) {
    while (bits != 0) {
      const int l = __builtin_ctz(bits);
      bits &= bits - 1;
      const uint32_t cell = kk[l];
      if (dense[cell] == kVacant) dense[cell] = fresh++;
    }
    return fresh;
  }
  alignas(32) uint32_t ii[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(ii), *id);
  while (bits != 0) {
    const int l = __builtin_ctz(bits);
    bits &= bits - 1;
    const uint32_t cell = kk[l];
    uint32_t cur = dense[cell];
    if (cur == kVacant) {
      cur = fresh++;
      dense[cell] = cur;
    }
    ii[l] = cur;
  }
  *id = _mm256_load_si256(reinterpret_cast<const __m256i*>(ii));
  return fresh;
}

inline uint32_t MissBits8(__m256i miss) {
  return static_cast<uint32_t>(
      _mm256_movemask_ps(_mm256_castsi256_ps(miss)));
}

/// Single-level specialization of the dense loop. Refine-by-one-attribute
/// is the hottest shape the repair search produces, and the generic loop
/// pays dearly for it: the RefineArgs/Level indirection makes GCC re-load
/// every field and re-test every runtime flag per 8-tuple batch. This
/// version hoists all batch constants into locals before the loop and
/// resolves the masked/count-only shape at compile time.
template <bool kMasked, bool kCountOnly>
uint32_t Dense1Level8(const RefineArgs& a, uint32_t* dense, uint32_t fresh) {
  const uint32_t* const base = a.base_ids;
  const uint8_t* const live = a.live;
  uint32_t* const out = a.out;
  const Level lv = a.levels[0];
  const uint32_t* const codes = lv.codes;
  const bool check = base != nullptr && a.base_groups <= 0xffffffffull;
  const bool has_nulls = lv.has_nulls;
  const __m256i vgroups =
      _mm256_set1_epi32(static_cast<int>(a.base_groups));
  const __m256i vstride = _mm256_set1_epi32(static_cast<int>(lv.stride));
  const __m256i vnull =
      _mm256_set1_epi32(static_cast<int>(relation::kNullCode));
  const __m256i vslot = _mm256_set1_epi32(static_cast<int>(lv.null_slot));
  const __m256i vvacant = _mm256_set1_epi32(-1);

  // One batch's key vector: base ids (bounds-checked on live lanes) *
  // stride + NULL-remapped codes. Everything it reads is a local.
  const auto keys_at = [&](size_t t, __m256i livemask) {
    __m256i key;
    if (base != nullptr) {
      key = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(base + t));
      if (check) {
        __m256i bad = _mm256_cmpeq_epi32(_mm256_max_epu32(key, vgroups), key);
        if (kMasked) bad = _mm256_and_si256(bad, livemask);
        if (!_mm256_testz_si256(bad, bad)) detail::ThrowBadId();
      }
    } else {
      key = _mm256_setzero_si256();
    }
    __m256i c =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(codes + t));
    if (has_nulls) {
      const __m256i isnull = _mm256_cmpeq_epi32(c, vnull);
      c = _mm256_blendv_epi8(c, vslot, isnull);
    }
    return _mm256_add_epi32(_mm256_mullo_epi32(key, vstride), c);
  };

  size_t t = a.lo;
  // 2x unrolled: both gathers in flight before either fixup (latency
  // hiding); batch 1's stale-vacant reads self-correct because the fixup
  // re-reads each missed cell, strictly in tuple order.
  for (; t + 16 <= a.hi; t += 16) {
    __m256i live0 = _mm256_set1_epi32(-1);
    __m256i live1 = live0;
    if (kMasked) {
      live0 = LiveMask8(live, t);
      live1 = LiveMask8(live, t + 8);
    }
    const __m256i key0 = keys_at(t, live0);
    const __m256i key1 = keys_at(t + 8, live1);
    __m256i id0 =
        kMasked ? _mm256_mask_i32gather_epi32(
                      vvacant, reinterpret_cast<const int*>(dense), key0,
                      live0, 4)
                : _mm256_i32gather_epi32(reinterpret_cast<const int*>(dense),
                                         key0, 4);
    __m256i id1 =
        kMasked ? _mm256_mask_i32gather_epi32(
                      vvacant, reinterpret_cast<const int*>(dense), key1,
                      live1, 4)
                : _mm256_i32gather_epi32(reinterpret_cast<const int*>(dense),
                                         key1, 4);
    __m256i miss0 = _mm256_cmpeq_epi32(id0, vvacant);
    __m256i miss1 = _mm256_cmpeq_epi32(id1, vvacant);
    if (kMasked) {
      miss0 = _mm256_and_si256(miss0, live0);
      miss1 = _mm256_and_si256(miss1, live1);
    }
    const uint32_t bits0 = MissBits8(miss0);
    const uint32_t bits1 = MissBits8(miss1);
    if ((bits0 | bits1) != 0) {
      // Inline fixup over the combined 16-lane spill: ctz-walk in lane
      // (= tuple) order with a per-cell re-read, so duplicates within and
      // across the pair still get first-appearance ids. The loop body makes
      // no call, so every batch constant lives in a register across
      // iterations.
      alignas(32) uint32_t kk[16];
      _mm256_store_si256(reinterpret_cast<__m256i*>(kk), key0);
      _mm256_store_si256(reinterpret_cast<__m256i*>(kk + 8), key1);
      uint32_t bits = bits0 | (bits1 << 8);
      if (kCountOnly) {
        while (bits != 0) {
          const int l = __builtin_ctz(bits);
          bits &= bits - 1;
          const uint32_t cell = kk[l];
          if (dense[cell] == kVacant) dense[cell] = fresh++;
        }
      } else {
        alignas(32) uint32_t ii[16];
        _mm256_store_si256(reinterpret_cast<__m256i*>(ii), id0);
        _mm256_store_si256(reinterpret_cast<__m256i*>(ii + 8), id1);
        while (bits != 0) {
          const int l = __builtin_ctz(bits);
          bits &= bits - 1;
          const uint32_t cell = kk[l];
          uint32_t cur = dense[cell];
          if (cur == kVacant) {
            cur = fresh++;
            dense[cell] = cur;
          }
          ii[l] = cur;
        }
        id0 = _mm256_load_si256(reinterpret_cast<const __m256i*>(ii));
        id1 = _mm256_load_si256(reinterpret_cast<const __m256i*>(ii + 8));
      }
    }
    if (!kCountOnly) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + t), id0);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + t + 8), id1);
    }
  }
  for (; t + 8 <= a.hi; t += 8) {
    __m256i livemask = _mm256_set1_epi32(-1);
    if (kMasked) {
      livemask = LiveMask8(live, t);
      if (_mm256_testz_si256(livemask, livemask)) continue;
    }
    const __m256i key = keys_at(t, livemask);
    __m256i id =
        kMasked ? _mm256_mask_i32gather_epi32(
                      vvacant, reinterpret_cast<const int*>(dense), key,
                      livemask, 4)
                : _mm256_i32gather_epi32(reinterpret_cast<const int*>(dense),
                                         key, 4);
    __m256i miss = _mm256_cmpeq_epi32(id, vvacant);
    if (kMasked) miss = _mm256_and_si256(miss, livemask);
    uint32_t bits = MissBits8(miss);
    if (bits != 0) {
      alignas(32) uint32_t kk[8];
      _mm256_store_si256(reinterpret_cast<__m256i*>(kk), key);
      if (kCountOnly) {
        while (bits != 0) {
          const int l = __builtin_ctz(bits);
          bits &= bits - 1;
          const uint32_t cell = kk[l];
          if (dense[cell] == kVacant) dense[cell] = fresh++;
        }
      } else {
        alignas(32) uint32_t ii[8];
        _mm256_store_si256(reinterpret_cast<__m256i*>(ii), id);
        while (bits != 0) {
          const int l = __builtin_ctz(bits);
          bits &= bits - 1;
          const uint32_t cell = kk[l];
          uint32_t cur = dense[cell];
          if (cur == kVacant) {
            cur = fresh++;
            dense[cell] = cur;
          }
          ii[l] = cur;
        }
        id = _mm256_load_si256(reinterpret_cast<const __m256i*>(ii));
      }
    }
    if (!kCountOnly) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + t), id);
    }
  }
  return detail::DenseRefineRange(a, dense, fresh, t, a.hi);
}

uint32_t Avx2Dense(const RefineArgs& a, uint32_t* dense, uint32_t fresh) {
  if (a.level_count == 1) {
    const bool masked = a.live != nullptr;
    const bool count_only = a.out == nullptr;
    if (masked) {
      return count_only ? Dense1Level8<true, true>(a, dense, fresh)
                        : Dense1Level8<true, false>(a, dense, fresh);
    }
    return count_only ? Dense1Level8<false, true>(a, dense, fresh)
                      : Dense1Level8<false, false>(a, dense, fresh);
  }
  const __m256i vvacant = _mm256_set1_epi32(-1);
  const bool masked = a.live != nullptr;
  const bool count_only = a.out == nullptr;
  size_t t = a.lo;
  // 2x unrolled: both gathers are in flight before either fixup runs
  // (gather latency hiding). Batch 1's gather may read a stale kVacant
  // for a key batch 0 is about to insert — harmless, its fixup re-reads
  // the cell after batch 0's fixup completed, in tuple order.
  for (; t + 16 <= a.hi; t += 16) {
    __m256i live0 = _mm256_set1_epi32(-1);
    __m256i live1 = live0;
    if (masked) {
      live0 = LiveMask8(a.live, t);
      live1 = LiveMask8(a.live, t + 8);
    }
    const __m256i key0 = PackedKeys8(a, t, live0, masked);
    const __m256i key1 = PackedKeys8(a, t + 8, live1, masked);
    __m256i id0 =
        masked ? _mm256_mask_i32gather_epi32(
                     vvacant, reinterpret_cast<const int*>(dense), key0,
                     live0, 4)
               : _mm256_i32gather_epi32(reinterpret_cast<const int*>(dense),
                                        key0, 4);
    __m256i id1 =
        masked ? _mm256_mask_i32gather_epi32(
                     vvacant, reinterpret_cast<const int*>(dense), key1,
                     live1, 4)
               : _mm256_i32gather_epi32(reinterpret_cast<const int*>(dense),
                                        key1, 4);
    __m256i miss0 = _mm256_cmpeq_epi32(id0, vvacant);
    __m256i miss1 = _mm256_cmpeq_epi32(id1, vvacant);
    if (masked) {
      miss0 = _mm256_and_si256(miss0, live0);
      miss1 = _mm256_and_si256(miss1, live1);
    }
    const uint32_t bits0 = MissBits8(miss0);
    const uint32_t bits1 = MissBits8(miss1);
    if (bits0 != 0) {
      fresh = FixupMisses8(dense, key0, count_only ? nullptr : &id0, bits0,
                           fresh);
    }
    if (bits1 != 0) {
      fresh = FixupMisses8(dense, key1, count_only ? nullptr : &id1, bits1,
                           fresh);
    }
    if (!count_only) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(a.out + t), id0);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(a.out + t + 8), id1);
    }
  }
  for (; t + 8 <= a.hi; t += 8) {
    __m256i livemask = _mm256_set1_epi32(-1);
    if (masked) {
      livemask = LiveMask8(a.live, t);
      if (_mm256_testz_si256(livemask, livemask)) continue;
    }
    const __m256i key = PackedKeys8(a, t, livemask, masked);
    // Dead lanes must not touch memory (their keys are unchecked); the
    // masked gather leaves them at kVacant, filtered out of `miss` below.
    __m256i id =
        masked ? _mm256_mask_i32gather_epi32(
                     vvacant, reinterpret_cast<const int*>(dense), key,
                     livemask, 4)
               : _mm256_i32gather_epi32(reinterpret_cast<const int*>(dense),
                                        key, 4);
    __m256i miss = _mm256_cmpeq_epi32(id, vvacant);
    if (masked) miss = _mm256_and_si256(miss, livemask);
    const uint32_t bits = MissBits8(miss);
    if (bits != 0) {
      fresh = FixupMisses8(dense, key, count_only ? nullptr : &id, bits,
                           fresh);
    }
    if (!count_only) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(a.out + t), id);
    }
  }
  return detail::DenseRefineRange(a, dense, fresh, t, a.hi);
}

}  // namespace

const KernelSet kAvx2Kernels{util::CpuTier::kAvx2, Avx2Dense};

}  // namespace fdevolve::query::kernels

#endif  // FDEVOLVE_X86_KERNELS
