// Kernel registry: resolves the active tier once, publishes it through an
// atomic pointer, and hosts the baseline scalar kernel set (which is the
// reference semantics the AVX2 tier must reproduce bit-for-bit).
#include "query/kernels.h"

#include <atomic>
#include <cstdlib>
#include <stdexcept>

#include "query/kernels_detail.h"

namespace fdevolve::query::kernels {
namespace {

uint32_t BaselineDense(const RefineArgs& a, uint32_t* dense) {
  return detail::DenseRefineRange(a, dense, 0, 0);
}

constexpr KernelSet kBaselineKernels{util::CpuTier::kBaseline, BaselineDense};

/// Tier -> kernel set, falling back to baseline when the AVX2 set is not
/// compiled into this binary (non-x86 builds).
const KernelSet* SetForTier([[maybe_unused]] util::CpuTier tier) {
#if defined(FDEVOLVE_X86_KERNELS)
  if (tier == util::CpuTier::kAvx2) return &kAvx2Kernels;
#endif
  return &kBaselineKernels;
}

util::CpuTier ClampToHost(util::CpuTier tier) {
  const util::CpuTier host = util::DetectCpuFeatures().max_tier();
  return static_cast<int>(tier) < static_cast<int>(host) ? tier : host;
}

std::atomic<const KernelSet*> g_active{nullptr};

/// Startup resolution: the host's best tier, lowered by the env override
/// if present. Throws on unknown override names — deliberately loud, a
/// typo silently running baseline would be a perf bug nobody notices.
const KernelSet* ResolveStartup() {
  util::CpuTier tier = util::DetectCpuFeatures().max_tier();
  const char* env = std::getenv("FDEVOLVE_CPU_FEATURES");
  if (env != nullptr && *env != '\0') {
    util::CpuTier want;
    if (!util::ParseCpuTier(env, &want)) {
      throw std::invalid_argument(
          std::string("FDEVOLVE_CPU_FEATURES: unknown tier '") + env +
          "' (expected baseline|avx2)");
    }
    tier = ClampToHost(want);
  }
  return SetForTier(tier);
}

}  // namespace

const KernelSet& Active() {
  const KernelSet* set = g_active.load(std::memory_order_acquire);
  if (set == nullptr) {
    const KernelSet* resolved = ResolveStartup();
    const KernelSet* expected = nullptr;
    if (!g_active.compare_exchange_strong(expected, resolved,
                                          std::memory_order_acq_rel)) {
      resolved = expected;  // another thread (or ForceTier) won the race
    }
    set = resolved;
  }
  return *set;
}

util::CpuTier DetectedTier() {
  return util::DetectCpuFeatures().max_tier();
}

util::CpuTier SelectedTier() { return Active().tier; }

util::CpuTier ForceTier(util::CpuTier tier) {
  const KernelSet* set = SetForTier(ClampToHost(tier));
  g_active.store(set, std::memory_order_release);
  return set->tier;
}

util::CpuTier ForceTierByName(const std::string& name) {
  util::CpuTier tier;
  if (!util::ParseCpuTier(name, &tier)) {
    throw std::invalid_argument("unknown cpu tier '" + name +
                                "' (expected baseline|avx2)");
  }
  return ForceTier(tier);
}

std::vector<util::CpuTier> SupportedTiers() {
  std::vector<util::CpuTier> tiers{util::CpuTier::kBaseline};
  // Host-supported AND actually compiled in (SetForTier does not fall
  // back) — exactly the tiers ForceTier(tier) would install as-is.
  const util::CpuTier avx2 = util::CpuTier::kAvx2;
  if (ClampToHost(avx2) == avx2 && SetForTier(avx2)->tier == avx2) {
    tiers.push_back(avx2);
  }
  return tiers;
}

}  // namespace fdevolve::query::kernels
