// Deterministic, seed-driven reservoir sample over an evolving relation.
//
// Sampled FD monitoring (fd::SchemaMonitor's sampled source) needs a fixed
// memory budget regardless of stream length: a uniform sample of the live
// rows, maintained under INSERT/DELETE/UPDATE through the same
// version()/mutation_epoch()/compactions() contract the incremental
// caches use. The classic streaming answer is Vitter's Algorithm R over a
// fixed-capacity reservoir (DuckDB's physical_reservoir_sample operator is
// the production shape of the same idea), adapted here for the
// tombstone-mutable storage:
//
//   * **Appends** run plain Algorithm R over *physical* rows: the t-th
//     offered row replaces a uniformly chosen slot with probability k/t.
//     The reservoir is therefore always a uniform k-subset of the physical
//     rows offered so far.
//   * **Deletes** do NOT restructure the reservoir. A tombstoned member
//     merely stops counting: consumers read the sample through
//     LiveMembers(), which filters through Relation::is_live() at read
//     time. Uniformity survives — intersecting a uniform random k-subset
//     of physical rows with the fixed live set yields, conditional on its
//     size, a uniform sample of the live rows. (Replacing dead members
//     eagerly would bias toward recent rows; Random-Pairing-style schemes
//     fix that at the cost of extra state. The server compacts once half
//     the physical rows are dead, so live occupancy stays >= k/2 in
//     expectation and the simple scheme keeps its effective sample size.)
//   * **Compaction** reassigns physical ids wholesale, so the sampler
//     detects it (compactions() diff) and deterministically rebuilds:
//     it re-offers every row of the compacted relation in physical order,
//     with the generator continuing from its current state. The rebuilt
//     reservoir is a pure function of (relation state, generator state),
//     both of which are themselves pure functions of the per-table
//     statement order — which is what keeps serial journal replay
//     bit-identical to a live run (see server/service.h).
//
// Determinism-under-seed invariant: every Offer consumes a fixed number
// of generator draws (one once the reservoir is full, zero before), so
// the slot sequence — and every estimate derived from it — is a pure
// function of (seed, sequence of offered rows, compaction points). The
// full generator state is exposed for checkpointing; a restored sampler
// continues the exact slot sequence the checkpointed one would have
// produced.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "relation/relation.h"
#include "util/rng.h"

namespace fdevolve::query {

/// Complete serializable state of a ReservoirSampler — what a sampled
/// monitor's entry in an FDEV server-state snapshot persists so resume
/// continues the identical replacement sequence.
struct ReservoirState {
  uint64_t capacity = 0;
  uint64_t seed = 0;       ///< construction seed (diagnostic; state rules)
  uint64_t rng_state = 0;  ///< generator state at capture
  uint64_t seen = 0;       ///< physical rows offered since last rebuild
  std::vector<uint32_t> rows;  ///< reservoir slots (physical row ids)
  uint64_t observed_version = 0;
  uint64_t observed_compactions = 0;
};

/// Fixed-capacity uniform sample of a relation's rows (see file comment).
///
/// Single-owner, externally synchronized, like query::DistinctEvaluator:
/// the relation must be quiescent during every call. Not copyable (it
/// observes the relation by reference); the relation must outlive it.
class ReservoirSampler {
 public:
  /// Samples `*rel` with the given slot budget (>= 1; 0 is promoted to 1)
  /// and seed. Rows already present are folded in immediately, so a
  /// sampler over a non-empty relation starts representative.
  ReservoirSampler(const relation::Relation* rel, size_t capacity,
                   uint64_t seed);

  /// Restores a checkpointed sampler against `*rel`. The relation must be
  /// at the state the checkpoint was captured against (same watermark and
  /// compaction count) — throws std::invalid_argument otherwise, naming
  /// the mismatch. The restored sampler's subsequent slot sequence is
  /// bit-identical to the captured one's.
  ReservoirSampler(const relation::Relation* rel, const ReservoirState& state);

  ReservoirSampler(const ReservoirSampler&) = delete;
  ReservoirSampler& operator=(const ReservoirSampler&) = delete;

  /// Folds in everything that happened to the relation since the last
  /// call: a compaction triggers the deterministic rebuild, then any
  /// appended suffix is offered row by row. Deletes need no action here
  /// (read-time filtering). Call under the same quiescence the evaluator
  /// requires; a no-op when nothing changed.
  void Sync();

  /// Live members of the reservoir (physical row ids, slot order), i.e.
  /// the uniform sample of the live rows. Does not Sync() — call that
  /// first when the relation may have advanced.
  std::vector<uint32_t> LiveMembers() const;

  /// Raw slots, dead members included (slot order is meaningful to the
  /// replacement sequence, so tests compare it directly).
  const std::vector<uint32_t>& slots() const { return slots_; }

  size_t capacity() const { return capacity_; }
  uint64_t seed() const { return seed_; }

  /// Physical rows offered since the last rebuild (Algorithm R's t).
  uint64_t seen() const { return seen_; }

  /// Serializable state snapshot (see ReservoirState).
  ReservoirState State() const;

 private:
  /// Algorithm R step for physical row `t`.
  void Offer(uint32_t t);

  /// Deterministic full rebuild after a compaction: re-offers every row
  /// of the (now all-live) relation in physical order, generator
  /// continuing from its current state.
  void Rebuild();

  const relation::Relation* rel_;
  size_t capacity_;
  uint64_t seed_;
  util::Rng rng_;
  uint64_t seen_ = 0;
  std::vector<uint32_t> slots_;
  size_t observed_version_ = 0;
  size_t observed_compactions_ = 0;
};

}  // namespace fdevolve::query
