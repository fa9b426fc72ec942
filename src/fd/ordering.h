// FD repair ordering (§4.1): rank O_F = (ic_F + cf_F) / 2.
#pragma once

#include <vector>

#include "fd/fd.h"
#include "fd/measures.h"
#include "relation/relation.h"

namespace fdevolve::fd {

/// Conflict score of `fd` against the whole declared set `all` (§4.1):
///
///   cf_F = ( Σ_{F' ∈ all, F' ≠ F} |F ∩ F'| / max(|F|, |F'|) ) / |all|
///
/// The score is instance-independent. The summation excludes F itself
/// (a dependency does not conflict with itself); the normalisation keeps
/// the paper's |F| denominator, i.e. the size of the whole declared set.
///
/// Note: in the paper's running example the printed ranks
/// (0.25, 0.167, 0.056) equal ic/2 exactly, i.e. all conflict scores were
/// taken as 0 even though F2 and F3 share `Zip`. We implement the formula
/// as defined; `OrderingOptions::include_conflict = false` reproduces the
/// example's printed numbers. Either choice yields the same order on the
/// running example (F1, F2, F3).
double ConflictScore(const Fd& fd, const std::vector<Fd>& all);

struct OrderingOptions {
  /// If false, O_F = ic_F / 2 (matches the paper's printed example values).
  bool include_conflict = true;
};

/// One FD with its computed ordering rank.
struct OrderedFd {
  Fd fd;
  FdMeasures measures;
  double conflict = 0.0;
  double rank = 0.0;  ///< O_F
  size_t original_index = 0;
};

/// \brief Ranks FDs whose measures are already counted: `measures[i]`
/// belongs to `fds[i]`. Sorts by descending O_F, ties broken by
/// declaration order.
///
/// The single home of the O_F formula and its tie-break: OrderFds ranks
/// through it, and so does FindFdRepairs, from the counts each Extend run
/// takes of its own FD. Throws std::invalid_argument when the two vectors
/// differ in length.
std::vector<OrderedFd> RankFds(const std::vector<Fd>& fds,
                               const std::vector<FdMeasures>& measures,
                               const OrderingOptions& opts = {});

/// Measures each FD once (ComputeMeasures), then ranks them with
/// RankFds. This is `OrderFDs` from Algorithm 1.
std::vector<OrderedFd> OrderFds(const relation::Relation& rel,
                                const std::vector<Fd>& fds,
                                const OrderingOptions& opts = {});

}  // namespace fdevolve::fd
