#include "query/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "util/cpu_features.h"

namespace fdevolve::query::kernels {
namespace {

using util::CpuTier;

/// Every test that forces a tier must put back what was selected on entry
/// — the registry is process-global, and the entry selection may itself be
/// an FDEVOLVE_CPU_FEATURES override that restoring DetectedTier() would
/// silently cancel for the rest of this binary.
struct RestoreTier {
  RestoreTier() : entry(SelectedTier()) {}
  ~RestoreTier() { ForceTier(entry); }
  CpuTier entry;
};

TEST(KernelDispatchTest, SupportedTiersStartAtBaselineAndAscend) {
  const auto tiers = SupportedTiers();
  ASSERT_FALSE(tiers.empty());
  EXPECT_EQ(tiers.front(), CpuTier::kBaseline);
  EXPECT_TRUE(std::is_sorted(tiers.begin(), tiers.end()));
  EXPECT_EQ(tiers.back(), DetectedTier());
}

TEST(KernelDispatchTest, ActiveMatchesSelectedTier) {
  EXPECT_EQ(Active().tier, SelectedTier());
}

TEST(KernelDispatchTest, ForceTierInstallsEverySupportedTier) {
  RestoreTier restore;
  for (CpuTier tier : SupportedTiers()) {
    EXPECT_EQ(ForceTier(tier), tier);
    EXPECT_EQ(SelectedTier(), tier);
    EXPECT_EQ(Active().tier, tier);
  }
}

TEST(KernelDispatchTest, ForceTierClampsToHostMaximum) {
  RestoreTier restore;
  // Asking for more than the host has yields the best available set, never
  // an illegal-instruction crash.
  EXPECT_EQ(ForceTier(CpuTier::kAvx2),
            std::min(CpuTier::kAvx2, DetectedTier()));
}

TEST(KernelDispatchTest, ForceTierByNameAcceptsCanonicalNames) {
  RestoreTier restore;
  EXPECT_EQ(ForceTierByName("baseline"), CpuTier::kBaseline);
  EXPECT_EQ(SelectedTier(), CpuTier::kBaseline);
}

TEST(KernelDispatchTest, ForceTierByNameRejectsUnknownNames) {
  RestoreTier restore;
  const CpuTier before = SelectedTier();
  EXPECT_THROW(ForceTierByName("avx9000"), std::invalid_argument);
  EXPECT_THROW(ForceTierByName(""), std::invalid_argument);
  EXPECT_EQ(SelectedTier(), before);  // failed force leaves selection alone
}

TEST(KernelDispatchTest, EveryTierProvidesTheDenseKernel) {
  RestoreTier restore;
  for (CpuTier tier : SupportedTiers()) {
    ForceTier(tier);
    const KernelSet& ks = Active();
    EXPECT_EQ(ks.tier, tier);
    EXPECT_NE(ks.dense_refine, nullptr) << util::CpuTierName(tier);
  }
}

}  // namespace
}  // namespace fdevolve::query::kernels
