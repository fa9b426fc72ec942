// Statistical verification of the sampled monitor's error intervals.
//
// The estimator promises (see fd/sampled_estimate.h) that the stated
// [lo, hi] intervals contain the true confidence and goodness; the lower
// bounds are structural certainties and the uppers are Good–Turing with
// z = 2.576, so the per-check coverage target is 95%. That is a claim
// about the *distribution over samples* — this suite measures it over
// >= 200 seeded churn trials per adversarial scenario (delete-heavy,
// reinsert-heavy, domain-growth) and asserts the binomial lower bound
// (tests/support/stats.h). Deterministic under the default base seed;
// FDEVOLVE_STATS_TRIALS raises the trial count for nightly runs.
//
// Suite name SampledStats — `verify.sh --stats` and the nightly CI step
// target it by that regex.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "datagen/churn.h"
#include "fd/measures.h"
#include "fd/schema_monitor.h"
#include "relation/relation.h"
#include "support/fuzz_seed.h"
#include "support/stats.h"

namespace fdevolve::fd {
namespace {

using datagen::ApplyChurnOp;
using datagen::ChurnFd;
using datagen::ChurnScenario;
using datagen::ChurnSpec;
using datagen::ChurnStream;
using datagen::MakeChurn;
using relation::Relation;
using testsupport::BinomialAtLeast;
using testsupport::CountSuccesses;
using testsupport::StatsTrials;

/// The ground truth the intervals are measured against: exact measures of
/// the final live instance (compact a copy — fresh scans reject
/// tombstoned relations by contract).
FdMeasures TrueMeasures(const Relation& rel, const Fd& fd) {
  Relation compacted = rel;
  compacted.Compact();
  return ComputeMeasures(compacted, fd);
}

/// One trial: generate a churn stream for the scenario under this seed,
/// drive a small-reservoir sampled monitor through it, and check whether
/// the final estimate's intervals contain the truth.
bool IntervalCoversTruth(ChurnScenario scenario, uint64_t seed,
                         size_t capacity) {
  ChurnSpec spec;
  spec.scenario = scenario;
  spec.seed_rows = 80;
  spec.n_ops = 300;
  spec.seed = seed;
  const ChurnStream stream = MakeChurn(spec);

  Relation rel = stream.initial;
  SchemaMonitor mon(&rel, {ChurnFd(rel.schema())},
                    /*check_interval=*/64, capacity,
                    /*seed=*/seed ^ 0x5a5a5a5a5a5a5a5aULL);
  for (const datagen::ChurnOp& op : stream.ops) {
    ApplyChurnOp(&rel, op);
    mon.Poll();
  }
  mon.CheckNow();
  const SampledMeasures& est = mon.estimates()[0];
  const FdMeasures truth = TrueMeasures(rel, ChurnFd(rel.schema()));
  const double g = static_cast<double>(truth.goodness);
  return est.confidence_lo <= truth.confidence &&
         truth.confidence <= est.confidence_hi && est.goodness_lo <= g &&
         g <= est.goodness_hi;
}

/// Shared body: >= 95% coverage over the trial set, asserted through the
/// binomial lower bound so the suite is not a coin flip at the boundary.
void RunScenario(ChurnScenario scenario, int first_index) {
  const int trials = StatsTrials(200);
  const int successes =
      CountSuccesses(trials, first_index, [&](uint64_t seed) {
        return IntervalCoversTruth(scenario, seed, /*capacity=*/32);
      });
  EXPECT_TRUE(BinomialAtLeast(successes, trials, 0.95))
      << datagen::ChurnScenarioName(scenario) << ": " << successes << "/"
      << trials << " trials inside the stated intervals";
}

// Distinct first_index bases keep the three scenario seed streams from
// aliasing (support/stats.h contract).
TEST(SampledStats, IntervalsCoverTruthUnderDeleteHeavyChurn) {
  RunScenario(ChurnScenario::kDeleteHeavy, 0);
}

TEST(SampledStats, IntervalsCoverTruthUnderReinsertHeavyChurn) {
  RunScenario(ChurnScenario::kReinsertHeavy, 1000);
}

TEST(SampledStats, IntervalsCoverTruthUnderDomainGrowth) {
  RunScenario(ChurnScenario::kDomainGrowth, 2000);
}

TEST(SampledStats, WitnessedViolationsAreNeverFalsePositives) {
  // The structural claim behind drift events: a sampled witness pair is a
  // certainty, so whenever the monitor reports witnessed_violation the
  // full relation must genuinely violate the FD. Checked across all
  // scenarios and every seed — zero tolerance, not a coverage rate.
  const int trials = StatsTrials(60);
  for (ChurnScenario scenario :
       {ChurnScenario::kDeleteHeavy, ChurnScenario::kReinsertHeavy,
        ChurnScenario::kDomainGrowth}) {
    const int ok = CountSuccesses(trials, 3000, [&](uint64_t seed) {
      ChurnSpec spec;
      spec.scenario = scenario;
      spec.seed_rows = 60;
      spec.n_ops = 200;
      spec.seed = seed;
      spec.violation_rate = 0.15;  // plant plenty of witnesses
      const ChurnStream stream = MakeChurn(spec);
      Relation rel = stream.initial;
      SchemaMonitor mon(&rel, {ChurnFd(rel.schema())},
                        /*check_interval=*/16, /*capacity=*/24,
                        /*seed=*/seed + 1);
      for (const datagen::ChurnOp& op : stream.ops) {
        ApplyChurnOp(&rel, op);
        mon.Poll();
      }
      mon.CheckNow();
      if (!mon.estimates()[0].witnessed_violation) return true;  // no claim
      return !TrueMeasures(rel, ChurnFd(rel.schema())).exact;
    });
    EXPECT_EQ(ok, trials) << datagen::ChurnScenarioName(scenario);
  }
}

}  // namespace
}  // namespace fdevolve::fd
