// Dense group-id assignment: the shared primitive behind distinct counting
// (CB method) and clustering construction (EB baseline).
//
// A refinement chain combines the current group ids with the dictionary
// codes of a sequence of columns. Chains execute as *fused segments*: each
// segment packs as many consecutive levels as fit into one mixed-radix key
// (query/kernels.h) and sweeps the relation once — a 3-attribute GroupBy
// is typically ONE pass, not three. Within a segment, three execution
// paths share the loop, each provided by the runtime-dispatched SIMD
// kernel layer (baseline scalar / SSE4.2 / AVX2 / AVX-512, selected once
// per process by query::kernels::Active()):
//
//   * dense — when the segment radix (group_count * Π strides) is
//     O(tuples), a direct-indexed scratch array maps the packed key to the
//     next id with no hashing at all;
//   * flat  — otherwise an open-addressing table (util::FlatIdTable) keyed
//     on the packed u64 key takes over; no per-node allocation, linear
//     probing, power-of-two capacity;
//   * parallel — with `RefineScratch::threads > 1` and enough tuples
//     (more than `RefineScratch::grain`), the segment is range-partitioned
//     across the shared util::ThreadPool: each chunk assigns *local*
//     first-appearance ids, a sequential chunk-order merge maps local ids
//     to global ones, and a second parallel sweep rewrites the output.
//     Because the merge walks chunks in range order and each chunk's key
//     list is in local first-appearance order, the global ids are
//     bit-identical to what the sequential scan assigns — and because the
//     chunks run SIMD kernels, parallel and vectorized execution stack.
//
// All paths assign fresh ids in (logical) scan order, so ids remain
// deterministic and dense in order of first appearance — regardless of
// thread count. Passing a RefineScratch lets long-lived callers
// (DistinctEvaluator, the EB ranking loop) reuse the scratch buffers across
// passes; the overloads without one are conveniences that pay a fresh
// allocation and always run sequentially.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "query/kernels.h"
#include "relation/relation.h"
#include "util/flat_table.h"

namespace fdevolve::query {

/// \brief Partition of the tuples of a relation by equality on an attribute
/// set.
///
/// `ids[t]` is a dense cluster id in [0, group_count); ids are assigned in
/// order of first appearance, so they are deterministic for a given relation
/// — the parallel execution path reproduces exactly the same assignment.
/// Invariant (enforced by the refinement engine, required of hand-built
/// instances): every id is < group_count.
///
/// Groupings cover every PHYSICAL row of the relation, tombstoned ones
/// included — that is what keeps ids append-stable under deletions.
/// `group_count` therefore counts groups over physical rows; live-only
/// distinct counts come from the count-only entry points below or from
/// query::DistinctEvaluator's per-group live refcounts.
struct Grouping {
  std::vector<uint32_t> ids;   ///< per-tuple dense group id
  size_t group_count = 0;      ///< number of distinct groups
};

/// \brief Reusable scratch buffers and execution knobs for refinement
/// passes.
///
/// Default-constructible and cheap when unused; a long-lived instance makes
/// repeated GroupBy/RefineBy/count calls allocation-free in steady state.
///
/// Thread-safety: a RefineScratch belongs to exactly one logical caller at
/// a time — two threads must not share one. The parallel pass hands each
/// *chunk* its own `ChunkState`, so internal parallelism never contends on
/// shared buffers.
struct RefineScratch {
  std::vector<uint32_t> dense;     ///< direct-indexed packed-key map
  util::FlatIdTable table;         ///< open-addressing fallback
  std::vector<uint32_t> chain_ids; ///< intermediate ids for count-only chains
  std::vector<kernels::Level> levels; ///< per-chain kernel level descriptors

  /// Execution width for refinement passes over this scratch.
  /// 1 (the default) is the exact sequential code path; 0 resolves to
  /// `hardware_concurrency`; k > 1 range-partitions large passes into at
  /// most k chunks on the shared util::ThreadPool.
  int threads = 1;

  /// Minimum tuples per chunk: passes shorter than `grain` stay sequential,
  /// so unit-test-sized relations never pay parallel overhead. Exposed so
  /// differential tests can force chunking on small inputs.
  size_t grain = size_t{1} << 15;

  /// Per-chunk state of one parallel pass ("thread-local" by chunk index,
  /// which is what keeps the merge deterministic). Each chunk runs the
  /// same dense-or-flat choice as a sequential pass, with the admission
  /// test scaled to its chunk length.
  struct ChunkState {
    std::vector<uint32_t> dense; ///< chunk-local direct-indexed map
    util::FlatIdTable table;     ///< local (id, code) -> local id partial
    std::vector<uint64_t> keys;  ///< key of each local id, in local id order
    std::vector<uint32_t> remap; ///< local id -> merged global id
  };
  std::vector<ChunkState> chunks; ///< sized to the pass width on demand
  util::FlatIdTable merge;        ///< global table for the chunk-order merge
};

/// \brief Groups all tuples of `rel` by the attributes in `attrs`.
///
/// Empty `attrs` puts every tuple in one group (the projection on zero
/// attributes has exactly one distinct value), matching relational
/// semantics. NULLs compare equal to each other for grouping purposes; the
/// FD layer never passes NULL-able attributes here, but the clustering
/// layer may.
///
/// A single NULL-free attribute is answered by copying the column's
/// dictionary codes (already dense first-appearance ids); otherwise cost is
/// O(tuples * |attrs|) via per-attribute partition refinement, parallelized
/// per `scratch.threads`.
///
/// \param scratch reusable buffers + the `threads` execution knob; the
///        overload without one runs sequentially on fresh buffers.
Grouping GroupBy(const relation::Relation& rel, const relation::AttrSet& attrs);
Grouping GroupBy(const relation::Relation& rel, const relation::AttrSet& attrs,
                 RefineScratch& scratch);

/// \brief Refines an existing grouping by one extra attribute.
///
/// This is the incremental step the evaluator and the ε_EB ranking use so
/// that evaluating candidate FA : XA -> Y reuses the X grouping instead of
/// regrouping from scratch.
Grouping RefineBy(const relation::Relation& rel, const Grouping& base,
                  int attr);
Grouping RefineBy(const relation::Relation& rel, const Grouping& base,
                  int attr, RefineScratch& scratch);

/// \brief Refines an existing grouping by a whole attribute set.
Grouping RefineBy(const relation::Relation& rel, const Grouping& base,
                  const relation::AttrSet& attrs);
Grouping RefineBy(const relation::Relation& rel, const Grouping& base,
                  const relation::AttrSet& attrs, RefineScratch& scratch);

/// \brief |GroupBy(rel, attrs).group_count| without materializing
/// `Grouping::ids`, restricted to the relation's LIVE rows.
///
/// On an append-only relation a single attribute is answered straight
/// from the column dictionary (dict_size + has_nulls) with no per-tuple
/// work at all; longer sets run the refinement chain but skip writing ids
/// on the final pass (the parallel path still merges chunk key sets,
/// which is what produces the global count). When the relation carries
/// tombstones the final (count-only) pass skips dead rows — the count is
/// the number of groups with at least one live row — while intermediate
/// materializing passes still cover every physical row, keeping their ids
/// append-stable.
size_t GroupCountBy(const relation::Relation& rel,
                    const relation::AttrSet& attrs);
size_t GroupCountBy(const relation::Relation& rel,
                    const relation::AttrSet& attrs, RefineScratch& scratch);

/// \brief Number of groups RefineBy(rel, base, attrs) would produce with
/// at least one live row, without materializing the refined ids. `base`
/// must cover every physical row (dead included), which is what GroupBy /
/// RefineBy produce.
size_t RefineCountBy(const relation::Relation& rel, const Grouping& base,
                     const relation::AttrSet& attrs);
size_t RefineCountBy(const relation::Relation& rel, const Grouping& base,
                     const relation::AttrSet& attrs, RefineScratch& scratch);

/// \brief Number of groups induced jointly by two precomputed groupings,
/// i.e. |C_{A ∪ B}| given C_A and C_B — without touching column data.
size_t JointGroupCount(const Grouping& a, const Grouping& b);

}  // namespace fdevolve::query
