// Runtime-dispatched vectorized kernels for the partition-refinement hot
// paths (the DuckDB cpu_feature shape: one function-pointer set per ISA
// tier, resolved once at startup from util::DetectCpuFeatures()). Two
// tiers ship: the baseline scalar loops, which every host runs, and AVX2.
//
// Every kernel implements the same *fused multi-level* refinement pass: one
// sweep over a tuple range combines the incoming group ids with a whole
// chain of column levels at once via a packed mixed-radix key
//
//     key(t) = ((id * s_1 + c_1) * s_2 + c_2) ... * s_k + c_k
//
// where s_j = dict_size_j + has_nulls_j and c_j is the (NULL-remapped)
// dictionary code, and maps it to the next first-appearance id through a
// direct-indexed array with one cell per possible key. The packing is
// injective, and its first-appearance order over tuples equals the final
// ids of the sequential per-level chain — so a fused segment is
// bit-identical to k single-level passes while touching the relation once
// instead of k times. Drivers split a chain into segments whose radix fits
// the dense array and finish it on a query::StrippedPartition once the
// next segment would not (query/group_ids.cpp does the planning; kernels
// just execute one segment over every tuple).
//
// Identity contract (enforced by tests/query/kernel_tier_fuzz_test.cpp):
// both tiers — baseline scalar and AVX2 — assign exactly the same
// first-appearance ids and throw the same exception on malformed bases.
// The AVX2 kernels may batch the bounds check (an exception fires before
// any tuple of the offending batch is processed, instead of mid-batch),
// which is only observable on the exception path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/cpu_features.h"

// FDEVOLVE_X86_KERNELS is defined (by src/query/CMakeLists.txt, for the
// query module's TUs only) exactly when kernels_avx2.cpp is compiled with
// its per-file -mavx2: x86-64 with GCC/Clang. Everywhere else the registry
// holds the baseline set alone. Keeping the macro and the flag condition
// in one place is what guarantees the registry never references a kernel
// set that was not built.

namespace fdevolve::query::kernels {

/// One column level of a fused refinement segment.
struct Level {
  const uint32_t* codes = nullptr;  ///< dictionary codes, one per tuple
  uint64_t stride = 0;              ///< dict_size + has_nulls (radix digit)
  uint32_t null_slot = 0;           ///< code kNullCode remaps to (== dict_size)
  bool has_nulls = false;           ///< whether kNullCode can appear at all
};

/// Inputs of one fused refinement pass over the tuples [0, n).
///
/// Contracts shared by every kernel:
///   * `base_ids == nullptr` means the trivial one-group base (id 0).
///     Otherwise each live tuple's id is bounds-checked against
///     `base_groups` and a violation throws std::invalid_argument
///     ("RefinePass: group id out of range") — dead rows are exempt,
///     exactly like the scalar loop they replace.
///   * `out` may alias `base_ids`: every slot is read before written.
///   * `live != nullptr` (row mask: the tombstone bitmap or a SQL WHERE
///     mask; a 0 byte skips the row) implies `out == nullptr` — only
///     count-only passes filter.
struct RefineArgs {
  const uint32_t* base_ids = nullptr;
  uint64_t base_groups = 1;
  const Level* levels = nullptr;
  size_t level_count = 0;
  size_t n = 0;
  uint32_t* out = nullptr;
  const uint8_t* live = nullptr;
};

/// Value of a dense-array cell no packed key has reached yet.
constexpr uint32_t kVacant = 0xffffffffu;

/// Direct-indexed pass: `dense` has one cell per possible packed key,
/// pre-filled with kVacant. The caller guarantees the segment radix (cell
/// count) is <= kDenseCellLimit, which is what lets the gather-based
/// variants treat keys as signed 32-bit indices. Fresh ids count from 0;
/// returns the number assigned, i.e. the pass's group count.
using DenseRefineFn = uint32_t (*)(const RefineArgs& args, uint32_t* dense);

/// One dispatch tier's kernel. Instances are immutable statics; the
/// registry publishes a pointer to the active one.
struct KernelSet {
  util::CpuTier tier;
  DenseRefineFn dense_refine;
};

/// Largest dense array any driver may admit (cells). Bounded by 2^31 so
/// packed keys stay valid *signed* 32-bit gather indices for AVX2.
constexpr size_t kDenseCellLimit = size_t{1} << 31;

/// \brief The active kernel set.
///
/// Resolved once on first use: the host's best tier, optionally lowered by
/// the FDEVOLVE_CPU_FEATURES environment variable (unknown names throw
/// std::invalid_argument; names above what the host supports clamp down).
/// Thread-safe; after the first call this is one atomic load.
const KernelSet& Active();

/// Best tier the host CPU + OS support (independent of any override).
util::CpuTier DetectedTier();

/// Tier of the currently active kernel set (after any override).
util::CpuTier SelectedTier();

/// \brief Forces the active kernel set to `tier`, clamped to what the host
/// supports; returns the tier actually installed. Used by the
/// tier-identity tests and bench_kernels. Not thread-safe against
/// concurrent refinement passes — call at startup or between passes.
util::CpuTier ForceTier(util::CpuTier tier);

/// ForceTier by name; throws std::invalid_argument on unknown names
/// (valid: baseline|avx2).
util::CpuTier ForceTierByName(const std::string& name);

/// Tiers this process can actually run (compiled in AND host-supported),
/// ascending. Always contains kBaseline.
std::vector<util::CpuTier> SupportedTiers();

}  // namespace fdevolve::query::kernels
