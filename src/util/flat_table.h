// Open-addressing flat hash table: DistinctEvaluator's incremental chain
// tables (query/distinct.h), one per level of a cached grouping's
// derivation chain, which map (parent id, code) to the level's id as
// appended rows arrive.
//
// std::unordered_map spends the lookup chasing node pointers and
// allocating; this table is a single contiguous slot array with power-of-two
// capacity and linear probing over HashCombine, so a (group id, code) lookup
// is one mix, one masked index, and a short cache-resident probe run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/hash.h"

namespace fdevolve::util {

/// Flat map from a 64-bit key to a 32-bit dense id. It starts empty and
/// doubles whenever an insert would take it past half full. Vacancy is
/// tracked via the value field, so every value must be < kVacant (the
/// evaluator stores dense group ids, which are bounded by the tuple count).
class FlatIdTable {
 public:
  static constexpr uint32_t kVacant = 0xffffffffu;

  /// Returns the value stored under `key`, inserting `fresh` first if the
  /// key is absent. `*inserted` reports which happened.
  uint32_t FindOrInsert(uint64_t key, uint32_t fresh, bool* inserted) {
    if ((size_ + 1) * 2 > slots_.size()) Grow();
    size_t i = static_cast<size_t>(HashCombine(kSeed, key)) & mask_;
    while (true) {
      Slot& s = slots_[i];
      if (s.value == kVacant) {
        s.key = key;
        s.value = fresh;
        ++size_;
        *inserted = true;
        return fresh;
      }
      if (s.key == key) {
        *inserted = false;
        return s.value;
      }
      i = (i + 1) & mask_;
    }
  }

 private:
  struct Slot {
    uint64_t key;
    uint32_t value;
  };

  static constexpr size_t kMinCapacity = 16;
  static constexpr uint64_t kSeed = 0x9e3779b97f4a7c15ULL;

  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.empty() ? kMinCapacity : old.size() * 2,
                  Slot{0, kVacant});
    mask_ = slots_.size() - 1;
    for (const Slot& s : old) {
      if (s.value == kVacant) continue;
      size_t i = static_cast<size_t>(HashCombine(kSeed, s.key)) & mask_;
      while (slots_[i].value != kVacant) i = (i + 1) & mask_;
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  size_t size_ = 0;
};

}  // namespace fdevolve::util
