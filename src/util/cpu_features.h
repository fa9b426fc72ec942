// Runtime CPU-feature detection for the vectorized kernel layer.
//
// The query engine's refinement kernels exist in two variants (baseline
// scalar and AVX2); which one runs is decided once at startup from what
// the *host* supports — the binaries themselves stay portable to any
// x86-64 (or non-x86) machine. Detection follows the DuckDB cpu_feature
// shape: CPUID leaves for the instruction set plus the XGETBV/XCR0 check
// that the OS actually saves the wider register state (a kernel that
// doesn't context-switch ymm registers makes AVX2 "present but unusable";
// trusting CPUID alone corrupts state).
//
// On non-x86-64 builds every flag is false and the only tier is kBaseline.
#pragma once

#include <string>

namespace fdevolve::util {

/// Dispatch tiers, ordered: a tier implies every lower one. These are the
/// names accepted by FDEVOLVE_CPU_FEATURES.
enum class CpuTier {
  kBaseline = 0,  ///< portable scalar code, no ISA assumptions
  kAvx2 = 1,      ///< AVX2 (+ OS ymm state)
};

/// \brief What the host CPU + OS support, as probed once per process.
struct CpuFeatures {
  bool avx2 = false;  ///< AVX2 instructions AND OS ymm state enabled

  /// Highest tier this host can run.
  CpuTier max_tier() const {
    return avx2 ? CpuTier::kAvx2 : CpuTier::kBaseline;
  }
};

/// \brief Probes the host once (thread-safe, cached after the first call).
const CpuFeatures& DetectCpuFeatures();

/// The canonical lowercase name of a tier ("baseline", "avx2").
const char* CpuTierName(CpuTier tier);

/// \brief Parses a tier name (as accepted by FDEVOLVE_CPU_FEATURES).
/// Returns false on unknown names, leaving *tier alone.
bool ParseCpuTier(const std::string& name, CpuTier* tier);

}  // namespace fdevolve::util
