#include "clustering/eb_repair.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "datagen/places.h"
#include "datagen/synthetic.h"
#include "fd/repair_search.h"

namespace fdevolve::clustering {
namespace {

using relation::AttrSet;

TEST(EbRepairTest, HomogeneousCandidatesAreTheExactOnes) {
  // On Places/F1 the EB primary entropy must be zero exactly for the two
  // attributes (Municipal, PhNo) that the CB method finds exact.
  auto rel = datagen::MakePlaces();
  const auto& s = rel.schema();
  auto cands = RankEb(rel, datagen::PlacesF1(s));
  ASSERT_EQ(cands.size(), 6u);
  for (const auto& c : cands) {
    bool is_exact_attr = c.attr == s.Require("Municipal") ||
                         c.attr == s.Require("PhNo");
    EXPECT_EQ(c.homogeneous(), is_exact_attr)
        << "attr " << s.attr(c.attr).name;
  }
}

TEST(EbRepairTest, MunicipalRanksAbovePhNo) {
  // The EB tie-break H(C_A|C_XY) prefers Municipal over the over-specific
  // PhNo, matching the CB goodness tie-break (§5's headline agreement).
  auto rel = datagen::MakePlaces();
  const auto& s = rel.schema();
  auto cands = RankEb(rel, datagen::PlacesF1(s), fd::PoolOptions{});
  EXPECT_EQ(cands[0].attr, s.Require("Municipal"));
  EXPECT_EQ(cands[1].attr, s.Require("PhNo"));
  // Municipal is homogeneous AND complete: perfect (VI = 0).
  EXPECT_TRUE(cands[0].perfect());
  EXPECT_FALSE(cands[1].perfect());
}

TEST(EbRepairTest, ViVariantAlsoPutsMunicipalFirst) {
  auto rel = datagen::MakePlaces();
  const auto& s = rel.schema();
  auto cands = RankEb(rel, datagen::PlacesF1(s), fd::PoolOptions{},
                      EbVariant::kVi);
  EXPECT_EQ(cands[0].attr, s.Require("Municipal"));
}

TEST(EbRepairTest, ViIsSumOfPrimaryAndReverseEntropy) {
  auto rel = datagen::MakePlaces();
  const auto& s = rel.schema();
  fd::Fd f1 = datagen::PlacesF1(s);
  Clustering ground_truth(rel, f1.AllAttrs());
  for (const auto& c : RankEb(rel, f1)) {
    Clustering c_xa(rel, f1.lhs().With(c.attr));
    double expect_vi = ConditionalEntropy(ground_truth, c_xa) +
                       ConditionalEntropy(c_xa, ground_truth);
    EXPECT_NEAR(c.vi, expect_vi, 1e-12);
  }
}

TEST(EbRepairTest, AgreesWithCbOnExactCandidates) {
  // Property (§5): attribute A yields an exact CB repair (confidence 1)
  // iff EB finds C_XA homogeneous w.r.t. C_XY.
  datagen::SyntheticSpec spec;
  spec.n_attrs = 8;
  spec.n_tuples = 600;
  spec.repair_length = 1;
  spec.seed = 21;
  auto rel = datagen::MakeSynthetic(spec);
  fd::Fd f = datagen::SyntheticFd(rel.schema());

  query::DistinctEvaluator eval(rel);
  auto cb = fd::ExtendByOne(eval, f);
  auto eb = RankEb(rel, f);
  ASSERT_EQ(cb.size(), eb.size());
  for (const auto& e : eb) {
    for (const auto& c : cb) {
      if (c.attr == e.attr) {
        EXPECT_EQ(c.measures.exact, e.homogeneous())
            << "attr index " << c.attr;
      }
    }
  }
}

TEST(EbRepairTest, PoolFilteringMatchesCb) {
  auto rel = datagen::MakePlaces();
  fd::Fd f1 = datagen::PlacesF1(rel.schema());
  fd::PoolOptions opts;
  opts.restrict_to = AttrSet::Of({rel.schema().Require("Municipal")});
  auto cands = RankEb(rel, f1, opts);
  ASSERT_EQ(cands.size(), 1u);
  EXPECT_EQ(cands[0].attr, rel.schema().Require("Municipal"));
}

TEST(EbRepairTest, EntropiesNonNegative) {
  auto rel = datagen::MakePlaces();
  for (const auto& c : RankEb(rel, datagen::PlacesF4(rel.schema()))) {
    EXPECT_GE(c.h_xy_given_xa, 0.0);
    EXPECT_GE(c.h_a_given_xy, 0.0);
    EXPECT_GE(c.vi, 0.0);
  }
}

TEST(EbRepairTest, TombstonedRelationThrowsAndCompactedCopyRanksLikeLiveRows) {
  datagen::SyntheticSpec spec;
  spec.n_attrs = 8;
  spec.n_tuples = 2000;
  spec.repair_length = 2;
  spec.seed = 33;
  auto rel = datagen::MakeSynthetic(spec);
  const fd::Fd f = datagen::SyntheticFd(rel.schema());
  for (size_t t = 0; t < rel.tuple_count(); t += 3) rel.DeleteRow(t);

  // The clusterings group physical rows: ranking must refuse dead rows.
  EXPECT_THROW(RankEb(rel, f), std::logic_error);

  relation::Relation live_only(rel.name(), rel.schema());
  for (size_t t = 0; t < rel.tuple_count(); ++t) {
    if (!rel.is_live(t)) continue;
    std::vector<relation::Value> row;
    for (int a = 0; a < rel.attr_count(); ++a) row.push_back(rel.Get(t, a));
    live_only.AppendRow(row);
  }
  const auto want = RankEb(live_only, f);
  const auto got = RankEb(rel.CompactedCopy(), f);
  ASSERT_EQ(got.size(), want.size());
  ASSERT_FALSE(got.empty());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].attr, want[i].attr) << "rank " << i;
    EXPECT_EQ(got[i].h_xy_given_xa, want[i].h_xy_given_xa) << "rank " << i;
    EXPECT_EQ(got[i].h_a_given_xy, want[i].h_a_given_xy) << "rank " << i;
    EXPECT_EQ(got[i].vi, want[i].vi) << "rank " << i;
  }
}

}  // namespace
}  // namespace fdevolve::clustering
