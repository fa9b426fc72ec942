// Entropy-based (EB) repair baseline — the Chiang & Miller (ICDE 2011)
// method as described in §5 of the paper.
//
// Given a violated F : X -> Y the EB method fixes the ground-truth
// clustering C_XY, and scores every candidate attribute A by:
//   * primary key:   H(C_XY | C_XA)  — non-homogeneity of C_XA w.r.t. C_XY
//   * tie-break key:  H(C_A  | C_XY) — non-completeness of C_A w.r.t. C_XY
// The paper's §5 also analyses the "VI variant" that ranks by
// VI(C_XY, C_XA) = H(C_XY|C_XA) + H(C_XA|C_XY); both are provided.
#pragma once

#include <vector>

#include "clustering/clustering.h"
#include "clustering/entropy.h"
#include "fd/candidate_ranking.h"
#include "fd/fd.h"
#include "relation/relation.h"

namespace fdevolve::clustering {

/// Which EB scoring rule to use.
enum class EbVariant {
  kOriginal,  ///< sort by H(C_XY|C_XA), tie-break H(C_A|C_XY)
  kVi,        ///< sort by VI(C_XY, C_XA)
};

/// One EB-scored candidate.
struct EbCandidate {
  int attr = -1;
  double h_xy_given_xa = 0.0;  ///< H(C_XY | C_XA)
  double h_a_given_xy = 0.0;   ///< H(C_A | C_XY)
  double vi = 0.0;             ///< VI(C_XY, C_XA)

  /// An EB candidate yields an exact extended FD iff C_XA is homogeneous
  /// w.r.t. C_XY, i.e. the primary entropy is (numerically) zero.
  bool homogeneous() const { return h_xy_given_xa <= 1e-12; }
  /// Perfect candidate: homogeneous and complete (VI == 0).
  bool perfect() const { return vi <= 1e-12; }
};

/// Scores and ranks all candidates in `pool` for repairing `fd`.
/// Ordering follows `variant`; ties broken by attribute index. Throws
/// std::logic_error if `rel` carries tombstones (rank a CompactedCopy()).
///
/// `threads` is the width of candidate scoring: 0 (default) resolves to
/// `hardware_concurrency`, 1 forces the exact sequential code path, k > 1
/// scores candidates on the shared thread pool, one candidate per item
/// (each executor refines C_X and runs its entropy passes against its own
/// scratch; the ground truth C_XY, built once by sequential passes, is
/// shared read-only).
/// Scores land in a slot per candidate and the final sort's tie-break is
/// total, so the ranking is identical for every thread count.
std::vector<EbCandidate> RankEb(const relation::Relation& rel,
                                const fd::Fd& fd,
                                const relation::AttrSet& pool,
                                EbVariant variant = EbVariant::kOriginal,
                                int threads = 0);

/// Convenience: pool built with the same rules as the CB method.
std::vector<EbCandidate> RankEb(const relation::Relation& rel,
                                const fd::Fd& fd,
                                const fd::PoolOptions& opts = {},
                                EbVariant variant = EbVariant::kOriginal,
                                int threads = 0);

}  // namespace fdevolve::clustering
