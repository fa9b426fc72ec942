#include "clustering/entropy.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "datagen/synthetic.h"
#include "support/entropy_oracle.h"
#include "util/rng.h"

namespace fdevolve::clustering {
namespace {

using relation::AttrSet;
using relation::DataType;
using relation::Relation;
using relation::RelationBuilder;
using relation::Schema;

Relation MakeRel() {
  Schema schema({{"a", DataType::kInt64},
                 {"b", DataType::kInt64},
                 {"c", DataType::kInt64}});
  return RelationBuilder("t", schema)
      .Row({int64_t{1}, int64_t{10}, int64_t{0}})
      .Row({int64_t{1}, int64_t{10}, int64_t{1}})
      .Row({int64_t{2}, int64_t{10}, int64_t{0}})
      .Row({int64_t{2}, int64_t{20}, int64_t{1}})
      .Row({int64_t{3}, int64_t{20}, int64_t{0}})
      .Row({int64_t{3}, int64_t{20}, int64_t{1}})
      .Build();
}

TEST(EntropyTest, UniformTwoWaySplit) {
  // Clustering on c: {0,2,4} vs {1,3,5} — uniform binary: H = ln 2.
  Relation r = MakeRel();
  Clustering c(r, AttrSet::Of({2}));
  EXPECT_NEAR(Entropy(c), std::log(2.0), 1e-12);
}

TEST(EntropyTest, SingleClusterHasZeroEntropy) {
  Relation r = MakeRel();
  Clustering c(r, AttrSet());
  EXPECT_DOUBLE_EQ(Entropy(c), 0.0);
}

TEST(ConditionalEntropyTest, ZeroWhenGivenRefines) {
  // H(C_b | C_ab) = 0: knowing the (a,b) block determines the b block.
  Relation r = MakeRel();
  Clustering c_b(r, AttrSet::Of({1}));
  Clustering c_ab(r, AttrSet::Of({0, 1}));
  EXPECT_NEAR(ConditionalEntropy(c_b, c_ab), 0.0, 1e-12);
  // The converse is nonzero here (b does not determine a).
  EXPECT_GT(ConditionalEntropy(c_ab, c_b), 0.01);
}

TEST(ConditionalEntropyTest, SelfConditioningIsZero) {
  Relation r = MakeRel();
  Clustering c(r, AttrSet::Of({0}));
  EXPECT_NEAR(ConditionalEntropy(c, c), 0.0, 1e-12);
}

TEST(ConditionalEntropyTest, ChainRule) {
  // H(A,B) = H(B) + H(A|B) where H(A,B) is the joint clustering entropy.
  Relation r = MakeRel();
  Clustering c_a(r, AttrSet::Of({0}));
  Clustering c_b(r, AttrSet::Of({1}));
  Clustering c_ab(r, AttrSet::Of({0, 1}));
  EXPECT_NEAR(Entropy(c_ab), Entropy(c_b) + ConditionalEntropy(c_a, c_b),
              1e-12);
}

TEST(ViTest, ZeroIffSamePartition) {
  Relation r = MakeRel();
  Clustering c1(r, AttrSet::Of({0}));
  Clustering c2(r, AttrSet::Of({0}));
  EXPECT_NEAR(VariationOfInformation(c1, c2), 0.0, 1e-12);
  Clustering c3(r, AttrSet::Of({1}));
  EXPECT_GT(VariationOfInformation(c1, c3), 0.01);
}

TEST(ViTest, Symmetric) {
  Relation r = MakeRel();
  Clustering a(r, AttrSet::Of({0}));
  Clustering b(r, AttrSet::Of({2}));
  EXPECT_NEAR(VariationOfInformation(a, b), VariationOfInformation(b, a),
              1e-12);
}

TEST(ViTest, TriangleInequalityOnRandomClusterings) {
  // VI is a metric (Meilă 2007): check the triangle inequality on
  // clusterings from synthetic data.
  datagen::SyntheticSpec spec;
  spec.n_attrs = 6;
  spec.n_tuples = 400;
  spec.repair_length = 1;
  Relation r = datagen::MakeSynthetic(spec);
  Clustering a(r, AttrSet::Of({0}));
  Clustering b(r, AttrSet::Of({1}));
  Clustering c(r, AttrSet::Of({3}));
  EXPECT_LE(VariationOfInformation(a, c),
            VariationOfInformation(a, b) + VariationOfInformation(b, c) +
                1e-9);
}

TEST(ViTest, MatchesEntropyIdentity) {
  // VI(A,B) = H(A) + H(B) − 2·I(A;B).
  Relation r = MakeRel();
  Clustering a(r, AttrSet::Of({0}));
  Clustering b(r, AttrSet::Of({1}));
  double vi = VariationOfInformation(a, b);
  double id = Entropy(a) + Entropy(b) - 2.0 * MutualInformation(a, b);
  EXPECT_NEAR(vi, id, 1e-12);
}

TEST(MutualInformationTest, NonNegativeAndBounded) {
  Relation r = MakeRel();
  Clustering a(r, AttrSet::Of({0}));
  Clustering b(r, AttrSet::Of({1}));
  double mi = MutualInformation(a, b);
  EXPECT_GE(mi, 0.0);
  EXPECT_LE(mi, std::min(Entropy(a), Entropy(b)) + 1e-12);
}

TEST(MutualInformationTest, IndependentClusteringsHaveNearZeroMi) {
  // a and c are constructed independent in MakeRel? Not exactly; build an
  // explicitly independent pair instead.
  Schema schema({{"a", DataType::kInt64}, {"b", DataType::kInt64}});
  Relation r("t", schema);
  for (int64_t i = 0; i < 4; ++i) {
    for (int64_t j = 0; j < 4; ++j) {
      r.AppendRow({i, j});  // perfectly balanced product distribution
    }
  }
  Clustering a(r, AttrSet::Of({0}));
  Clustering b(r, AttrSet::Of({1}));
  EXPECT_NEAR(MutualInformation(a, b), 0.0, 1e-12);
}

/// A clustering of `n` tuples into at most `k` clusters, ids renumbered
/// densely in first-appearance order. `skew` > 0 sends most tuples to a
/// few clusters.
Clustering RandomClustering(util::Rng& rng, size_t n, size_t k, bool skew) {
  std::vector<uint32_t> raw(n);
  for (uint32_t& id : raw) {
    const uint64_t bound = skew && rng.Chance(0.8) ? std::min<size_t>(k, 3) : k;
    id = static_cast<uint32_t>(rng.Below(bound));
  }
  std::vector<uint32_t> dense(k, UINT32_MAX);
  query::Grouping g;
  g.ids.resize(n);
  for (size_t t = 0; t < n; ++t) {
    uint32_t& d = dense[raw[t]];
    if (d == UINT32_MAX) d = static_cast<uint32_t>(g.group_count++);
    g.ids[t] = d;
  }
  return Clustering(std::move(g));
}

TEST(EntropyOracleTest, MatchesUnorderedMapFormulationBitForBit) {
  // Joint tables from a handful of pairs up to ~n distinct pairs, so the
  // map rehashes past its reserve in the larger cases.
  util::Rng rng(20260926);
  for (size_t n : {size_t{1}, size_t{17}, size_t{600}, size_t{5000}}) {
    for (size_t k : {size_t{1}, size_t{4}, size_t{60}, size_t{2500}}) {
      for (bool skew : {false, true}) {
        const Clustering a = RandomClustering(rng, n, k, skew);
        const Clustering b = RandomClustering(rng, n, k + 3, !skew);
        auto bits = [](double v) {
          uint64_t u = 0;
          std::memcpy(&u, &v, sizeof u);
          return u;
        };
        EXPECT_EQ(bits(ConditionalEntropy(a, b)),
                  bits(testsupport::OracleConditionalEntropy(a, b)))
            << "n=" << n << " k=" << k << " skew=" << skew;
        EXPECT_EQ(bits(ConditionalEntropy(b, a)),
                  bits(testsupport::OracleConditionalEntropy(b, a)))
            << "n=" << n << " k=" << k << " skew=" << skew;
        EXPECT_EQ(bits(VariationOfInformation(a, b)),
                  bits(testsupport::OracleVariationOfInformation(a, b)))
            << "n=" << n << " k=" << k << " skew=" << skew;
        EXPECT_EQ(bits(MutualInformation(a, b)),
                  bits(testsupport::OracleMutualInformation(a, b)))
            << "n=" << n << " k=" << k << " skew=" << skew;
      }
    }
  }
}

TEST(EntropyTest, MismatchedInstancesThrow) {
  Relation r1 = MakeRel();
  Schema schema({{"a", DataType::kInt64}});
  Relation r2("other", schema);
  r2.AppendRow({int64_t{1}});
  Clustering c1(r1, AttrSet::Of({0}));
  Clustering c2(r2, AttrSet::Of({0}));
  EXPECT_THROW(ConditionalEntropy(c1, c2), std::invalid_argument);
}

}  // namespace
}  // namespace fdevolve::clustering
