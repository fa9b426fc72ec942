// ExtendByOne (§4.2, Algorithm 2): rank single-attribute extensions.
#pragma once

#include <vector>

#include "fd/fd.h"
#include "fd/measures.h"
#include "query/distinct.h"
#include "relation/relation.h"

namespace fdevolve::fd {

/// The §4.2 rank of two extensions by their measures: negative when `a`
/// ranks first, positive when `b` does, 0 on a tie. Primary key confidence
/// (descending), secondary key goodness with values *closer to zero*
/// preferred — this is what penalises UNIQUE-like attributes (PhNo loses
/// to Municipal in Table 1 despite both reaching confidence 1).
/// Candidate::RankLess and Extend's frontier both rank by it, each with
/// its own tie-break.
inline int CompareRank(const FdMeasures& a, const FdMeasures& b) {
  if (a.confidence != b.confidence) return a.confidence > b.confidence ? -1 : 1;
  if (a.abs_goodness() != b.abs_goodness()) {
    return a.abs_goodness() < b.abs_goodness() ? -1 : 1;
  }
  return 0;
}

/// One candidate extension FA : XA -> Y.
struct Candidate {
  int attr = -1;        ///< the attribute A added to the antecedent
  Fd extended;          ///< XA -> Y
  FdMeasures measures;  ///< confidence/goodness of the extended FD

  /// Ranking comparator: CompareRank, then attribute index, for
  /// determinism.
  static bool RankLess(const Candidate& a, const Candidate& b) {
    const int rank = CompareRank(a.measures, b.measures);
    return rank != 0 ? rank < 0 : a.attr < b.attr;
  }
};

/// Options for candidate-pool construction.
struct PoolOptions {
  /// Exclude attributes whose column contains NULLs (§6.2.1: attributes in
  /// FDs may not contain NULL values).
  bool exclude_nulls = true;

  /// Exclude attributes that are UNIQUE on the instance. Off by default:
  /// the paper *discourages* them through goodness rather than banning them
  /// (§3, §6.3); turning this on is the harder variant studied in the
  /// ablation bench.
  bool exclude_unique = false;

  /// Optional explicit whitelist; if non-empty, the pool is intersected
  /// with it (used to window very wide relations such as Veterans).
  relation::AttrSet restrict_to;
};

/// Attributes eligible to extend `fd`'s antecedent: R \ XY, filtered by
/// `opts`.
relation::AttrSet CandidatePool(const relation::Relation& rel, const Fd& fd,
                                const PoolOptions& opts = {});

/// Evaluates and ranks every candidate in `pool`.
///
/// Unlike the paper's Algorithm 2 pseudocode — whose line 5 keeps only
/// exact candidates, contradicting Algorithm 3 which needs the inexact ones
/// in its queue — this returns *all* candidates, ranked; callers filter.
std::vector<Candidate> ExtendByOne(query::DistinctEvaluator& eval,
                                   const Fd& fd,
                                   const relation::AttrSet& pool);

/// Convenience overload that builds the pool itself.
std::vector<Candidate> ExtendByOne(query::DistinctEvaluator& eval,
                                   const Fd& fd,
                                   const PoolOptions& opts = {});

}  // namespace fdevolve::fd
