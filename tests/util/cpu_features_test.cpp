#include "util/cpu_features.h"

#include <gtest/gtest.h>

#include <string>

namespace fdevolve::util {
namespace {

TEST(CpuFeaturesTest, DetectionIsCachedAndStable) {
  const CpuFeatures& a = DetectCpuFeatures();
  const CpuFeatures& b = DetectCpuFeatures();
  EXPECT_EQ(&a, &b);  // probed once, same cached instance
  EXPECT_EQ(a.avx2, b.avx2);
}

TEST(CpuFeaturesTest, TiersImplyLowerOnes) {
  // The ladder is ordered (the kernel registry clamps a request to the
  // host by comparing tiers), so the detected maximum is one of the two
  // tiers, and AVX2 exactly when the probe reported it.
  static_assert(CpuTier::kBaseline < CpuTier::kAvx2);
  const CpuFeatures& f = DetectCpuFeatures();
  EXPECT_GE(f.max_tier(), CpuTier::kBaseline);
  EXPECT_LE(f.max_tier(), CpuTier::kAvx2);
  EXPECT_EQ(f.max_tier() == CpuTier::kAvx2, f.avx2);
}

TEST(CpuFeaturesTest, MaxTierMatchesFlags) {
  CpuFeatures f;
  EXPECT_EQ(f.max_tier(), CpuTier::kBaseline);
  f.avx2 = true;
  EXPECT_EQ(f.max_tier(), CpuTier::kAvx2);
}

TEST(CpuFeaturesTest, TierNamesRoundTripThroughParse) {
  for (CpuTier tier : {CpuTier::kBaseline, CpuTier::kAvx2}) {
    // Poison with the other tier so a parse that writes nothing fails.
    CpuTier parsed =
        tier == CpuTier::kAvx2 ? CpuTier::kBaseline : CpuTier::kAvx2;
    ASSERT_TRUE(ParseCpuTier(CpuTierName(tier), &parsed)) << CpuTierName(tier);
    EXPECT_EQ(parsed, tier);
  }
}

TEST(CpuFeaturesTest, ParseRejectsUnknownNamesAndLeavesOutputAlone) {
  for (const char* bad : {"", "AVX2", "avx", "sse4.2", "avx512f", "scalar",
                          "sse42", "avx512"}) {
    CpuTier tier = CpuTier::kAvx2;
    EXPECT_FALSE(ParseCpuTier(bad, &tier)) << "'" << bad << "'";
    EXPECT_EQ(tier, CpuTier::kAvx2) << "'" << bad << "'";
  }
}

}  // namespace
}  // namespace fdevolve::util
