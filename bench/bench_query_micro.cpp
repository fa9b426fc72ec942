// google-benchmark microbenches for the distinct-count engine: the
// O(n log n) sort plan vs the hash plan (§4.4's complexity discussion),
// the refinement-reuse win the repair search depends on, and the column
// statistics the repair planner reads.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "datagen/synthetic.h"
#include "datagen/tpch.h"
#include "query/column_stats.h"
#include "query/distinct.h"
#include "support/sort_distinct.h"
#include "util/rng.h"

namespace {

using namespace fdevolve;

relation::Relation MakeRel(int64_t tuples) {
  datagen::SyntheticSpec spec;
  spec.n_attrs = 8;
  spec.n_tuples = static_cast<size_t>(tuples);
  spec.repair_length = 2;
  spec.seed = 99;
  return datagen::MakeSynthetic(spec);
}

void BM_DistinctHash(benchmark::State& state) {
  auto rel = MakeRel(state.range(0));
  auto attrs = relation::AttrSet::Of({0, 2, 3});
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        query::DistinctCount(rel, attrs, query::DistinctStrategy::kHash));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DistinctHash)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_DistinctSort(benchmark::State& state) {
  auto rel = MakeRel(state.range(0));
  auto attrs = relation::AttrSet::Of({0, 2, 3});
  for (auto _ : state) {
    benchmark::DoNotOptimize(testsupport::SortDistinct(rel, attrs));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DistinctSort)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_DistinctSingleColumn(benchmark::State& state) {
  // The single-column fast path answers from the dictionary: time must be
  // flat across relation sizes (no per-tuple work at all).
  auto rel = MakeRel(state.range(0));
  auto attrs = relation::AttrSet::Of({3});
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        query::DistinctCount(rel, attrs, query::DistinctStrategy::kHash));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DistinctSingleColumn)->Arg(1000)->Arg(100000);

void BM_CountOnlyVsMaterialize_CountOnly(benchmark::State& state) {
  auto rel = MakeRel(100000);
  auto attrs = relation::AttrSet::Of({0, 2, 3});
  query::RefineScratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(query::GroupCountBy(rel, attrs, scratch));
  }
}
BENCHMARK(BM_CountOnlyVsMaterialize_CountOnly);

void BM_CountOnlyVsMaterialize_Materialize(benchmark::State& state) {
  auto rel = MakeRel(100000);
  auto attrs = relation::AttrSet::Of({0, 2, 3});
  query::RefineScratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(query::GroupBy(rel, attrs, scratch).group_count);
  }
}
BENCHMARK(BM_CountOnlyVsMaterialize_Materialize);

/// 600k rows of two independent uniform columns, 20k x 10k values: the
/// shape of TPC-H SF 0.1's |pi_{l_partkey,l_suppkey}|, whose packed radix
/// (2*10^8) is far past the dense array's 4n cells.
const relation::Relation& WideRel() {
  static const relation::Relation rel = [] {
    relation::Relation r(
        "wide", relation::Schema({{"part", relation::DataType::kInt64},
                                  {"supp", relation::DataType::kInt64}}));
    util::Rng rng(7);
    for (int t = 0; t < 600000; ++t) {
      r.AppendRow({relation::Value(static_cast<int64_t>(rng.Below(20000))),
                   relation::Value(static_cast<int64_t>(rng.Below(10000)))});
    }
    return r;
  }();
  return rel;
}

// Count-only past the dense limit, one scratch across calls.
void BM_CountOnlyPastDenseLimit_Warm(benchmark::State& state) {
  const auto& rel = WideRel();
  const auto attrs = relation::AttrSet::Of({0, 1});
  query::RefineScratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(query::GroupCountBy(rel, attrs, scratch));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(rel.tuple_count()));
}
BENCHMARK(BM_CountOnlyPastDenseLimit_Warm)->Unit(benchmark::kMillisecond);

// The same count with a fresh scratch per call, as a SQL COUNT(DISTINCT)
// statement or a per-plan DistinctEvaluator pays it.
void BM_CountOnlyPastDenseLimit_Cold(benchmark::State& state) {
  const auto& rel = WideRel();
  const auto attrs = relation::AttrSet::Of({0, 1});
  for (auto _ : state) {
    query::RefineScratch scratch;
    benchmark::DoNotOptimize(query::GroupCountBy(rel, attrs, scratch));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(rel.tuple_count()));
}
BENCHMARK(BM_CountOnlyPastDenseLimit_Cold)->Unit(benchmark::kMillisecond);

// The materializing GroupBy of the same key: it finishes on a stripped
// partition and writes first-appearance ids. Warm reuses one scratch, as
// the evaluator does; cold pays a fresh one per call.
void BM_GroupByPastDenseLimit_Warm(benchmark::State& state) {
  const auto& rel = WideRel();
  const auto attrs = relation::AttrSet::Of({0, 1});
  query::RefineScratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(query::GroupBy(rel, attrs, scratch).group_count);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(rel.tuple_count()));
}
BENCHMARK(BM_GroupByPastDenseLimit_Warm)->Unit(benchmark::kMillisecond);

void BM_GroupByPastDenseLimit_Cold(benchmark::State& state) {
  const auto& rel = WideRel();
  const auto attrs = relation::AttrSet::Of({0, 1});
  for (auto _ : state) {
    query::RefineScratch scratch;
    benchmark::DoNotOptimize(query::GroupBy(rel, attrs, scratch).group_count);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(rel.tuple_count()));
}
BENCHMARK(BM_GroupByPastDenseLimit_Cold)->Unit(benchmark::kMillisecond);

/// `rows` rows of two independent uniform columns drawing from `first`
/// and `second` values, and 4k distinct rows picked from it in random
/// order: the list a sampled monitor's reservoir hands GroupRows.
struct SampleShape {
  relation::Relation rel;
  std::vector<uint32_t> sample;
};

SampleShape MakeSampleShape(int rows, uint64_t first, uint64_t second,
                            size_t sample_rows) {
  SampleShape shape{
      relation::Relation(
          "sample", relation::Schema({{"x", relation::DataType::kInt64},
                                      {"y", relation::DataType::kInt64}})),
      {}};
  util::Rng rng(11);
  for (int t = 0; t < rows; ++t) {
    shape.rel.AppendRow(
        {relation::Value(static_cast<int64_t>(rng.Below(first))),
         relation::Value(static_cast<int64_t>(rng.Below(second)))});
  }
  std::vector<uint8_t> taken(static_cast<size_t>(rows), 0);
  while (shape.sample.size() < sample_rows) {
    const auto row = static_cast<uint32_t>(rng.Below(static_cast<uint64_t>(rows)));
    if (taken[row] == 0) {
      taken[row] = 1;
      shape.sample.push_back(row);
    }
  }
  return shape;
}

/// ingest_churn's sampled check: 3.9k reservoir rows of a 60k-row table,
/// grouped by a 2000 x 100-value key (past the dense limit of 3.9k rows).
const SampleShape& ChurnSample() {
  static const SampleShape shape = MakeSampleShape(60000, 2000, 100, 3900);
  return shape;
}

/// 4k rows of a 400k-row table whose first column holds ~330k distinct
/// values: far more dictionary slots than listed rows.
const SampleShape& WideDictSample() {
  static const SampleShape shape =
      MakeSampleShape(400000, 1000000, 100, 4000);
  return shape;
}

void GroupRowsLoop(benchmark::State& state, const SampleShape& shape,
                   bool fresh_scratch) {
  const auto attrs = relation::AttrSet::Of({0, 1});
  query::RefineScratch scratch;
  for (auto _ : state) {
    if (fresh_scratch) scratch = query::RefineScratch();
    benchmark::DoNotOptimize(
        query::GroupRows(shape.rel, shape.sample, attrs, scratch).group_count);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(shape.sample.size()));
}

void BM_GroupRowsChurnSample_Warm(benchmark::State& state) {
  GroupRowsLoop(state, ChurnSample(), false);
}
BENCHMARK(BM_GroupRowsChurnSample_Warm)->Unit(benchmark::kMicrosecond);

void BM_GroupRowsChurnSample_Cold(benchmark::State& state) {
  GroupRowsLoop(state, ChurnSample(), true);
}
BENCHMARK(BM_GroupRowsChurnSample_Cold)->Unit(benchmark::kMicrosecond);

void BM_GroupRowsWideDictionary_Warm(benchmark::State& state) {
  GroupRowsLoop(state, WideDictSample(), false);
}
BENCHMARK(BM_GroupRowsWideDictionary_Warm)->Unit(benchmark::kMicrosecond);

void BM_GroupRowsWideDictionary_Cold(benchmark::State& state) {
  GroupRowsLoop(state, WideDictSample(), true);
}
BENCHMARK(BM_GroupRowsWideDictionary_Cold)->Unit(benchmark::kMicrosecond);

void BM_GroupByWideSet(benchmark::State& state) {
  auto rel = MakeRel(20000);
  auto attrs = relation::AttrSet::Of({0, 1, 2, 3, 4, 5, 6, 7});
  for (auto _ : state) {
    benchmark::DoNotOptimize(query::GroupBy(rel, attrs).group_count);
  }
}
BENCHMARK(BM_GroupByWideSet);

void BM_EvaluatorColdVsWarm_Cold(benchmark::State& state) {
  auto rel = MakeRel(20000);
  for (auto _ : state) {
    // Fresh evaluator per XA query: no reuse (what a naive SQL loop does).
    for (int a = 2; a < 8; ++a) {
      query::DistinctEvaluator eval(rel);
      benchmark::DoNotOptimize(eval.Count(relation::AttrSet::Of({0, a})));
    }
  }
}
BENCHMARK(BM_EvaluatorColdVsWarm_Cold);

void BM_EvaluatorColdVsWarm_Warm(benchmark::State& state) {
  auto rel = MakeRel(20000);
  for (auto _ : state) {
    // Shared evaluator: X's grouping computed once, refined per candidate —
    // the access pattern of ExtendByOne.
    query::DistinctEvaluator eval(rel);
    benchmark::DoNotOptimize(eval.Count(relation::AttrSet::Of({0})));
    for (int a = 2; a < 8; ++a) {
      benchmark::DoNotOptimize(eval.Count(relation::AttrSet::Of({0, a})));
    }
  }
}
BENCHMARK(BM_EvaluatorColdVsWarm_Warm);

void BM_RefineByOneColumn(benchmark::State& state) {
  auto rel = MakeRel(state.range(0));
  auto base = query::GroupBy(rel, relation::AttrSet::Of({0}));
  for (auto _ : state) {
    benchmark::DoNotOptimize(query::RefineBy(rel, base, 3).group_count);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RefineByOneColumn)->Arg(10000)->Arg(100000);

/// TPC-H 1 GB/10's lineitem: ~600k rows x 16 columns, the table fdbench's
/// analyst round plans EXPLAIN REPAIR over.
const relation::Relation& Lineitem() {
  static const relation::Relation rel = [] {
    datagen::TpchOptions o;
    o.scale = datagen::TpchScale::kLarge;
    o.scale_divisor = 10;
    return datagen::MakeTpch(o).Get("lineitem");
  }();
  return rel;
}

/// The same rows with every tenth one tombstoned.
const relation::Relation& TombstonedLineitem() {
  static const relation::Relation rel = [] {
    relation::Relation r = Lineitem();
    for (size_t t = 0; t < r.tuple_count(); t += 10) r.DeleteRow(t);
    return r;
  }();
  return rel;
}

// The per-column statistics every EXPLAIN REPAIR computes; /tombstoned:1
// runs on the copy with 10% of its rows deleted.
void BM_ColumnStats(benchmark::State& state) {
  const auto& rel = state.range(0) == 0 ? Lineitem() : TombstonedLineitem();
  for (auto _ : state) {
    benchmark::DoNotOptimize(query::ComputeColumnStats(rel));
  }
}
BENCHMARK(BM_ColumnStats)
    ->ArgName("tombstoned")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

// Lineitem's rows appended into an empty relation, in batches decoded
// outside the timed region: the per-append cost of dictionary encoding,
// index growth and the live counts.
void BM_AppendRows(benchmark::State& state) {
  const auto& src = Lineitem();
  constexpr size_t kBatch = 8192;
  std::vector<std::vector<relation::Value>> batch;
  for (auto _ : state) {
    relation::Relation rel(src.name(), src.schema());
    for (size_t lo = 0; lo < src.tuple_count(); lo += kBatch) {
      state.PauseTiming();
      batch.resize(std::min(kBatch, src.tuple_count() - lo));
      for (size_t r = 0; r < batch.size(); ++r) {
        batch[r].clear();
        for (int i = 0; i < src.attr_count(); ++i) {
          batch[r].push_back(src.Get(lo + r, i));
        }
      }
      state.ResumeTiming();
      rel.AppendRows(batch);
    }
    state.PauseTiming();  // the relation's teardown is not an append
    rel = relation::Relation(src.name(), src.schema());
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(src.tuple_count()));
}
BENCHMARK(BM_AppendRows)->Unit(benchmark::kMillisecond);

}  // namespace
