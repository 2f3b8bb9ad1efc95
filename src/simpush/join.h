// SimRank similarity join: enumerate node pairs whose SimRank exceeds a
// threshold, and the global top-N most-similar pairs. The paper's §6
// cites join processing (Maehara et al. [24], Tao et al. [30]) as a
// SimRank query shape adjacent to single-source; this module builds it
// on SimPush so the join inherits the index-free property (usable on a
// graph that changed a moment ago).
//
// Algorithm: one single-source query per candidate source node (skipping
// structurally hopeless sources), emitting each qualifying pair once
// (u < v). Per-query cost is SimPush's; the join is embarrassingly
// parallel across sources and runs on the ThreadPool.
//
// Soundness: a pair is emitted when s̃ >= threshold - ε. Definition 1
// bounds SimPush's error on both sides, |s̃ - s| <= ε for every v with
// probability at least 1-δ per source, so s >= threshold implies
// s̃ >= threshold - ε and the join misses no such pair w.p. 1-δ per
// source. Pairs with s down to threshold - 2ε may appear (the caller
// can post-filter with a finer ε).

#ifndef SIMPUSH_SIMPUSH_JOIN_H_
#define SIMPUSH_SIMPUSH_JOIN_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "graph/graph.h"
#include "simpush/options.h"

namespace simpush {

/// One joined pair, u < v.
struct SimilarPair {
  NodeId u = kInvalidNode;
  NodeId v = kInvalidNode;
  double score = 0;  ///< s̃(u, v) from u's single-source query.
};

/// Options for the join scans.
struct JoinOptions {
  /// Per-source query options. `epsilon` should be well below the join
  /// threshold (a coarse ε makes the emitted band proportionally wide).
  SimPushOptions query;
  /// Worker threads for the source fan-out (0 = hardware concurrency).
  size_t num_threads = 0;
  /// Safety valve: abort with ResourceExhausted-like error when the
  /// result would exceed this many pairs (dense graphs + low threshold).
  size_t max_pairs = 10'000'000;

  Status Validate() const;
};

/// All pairs with s̃(u, v) >= threshold - ε, each emitted once (u < v),
/// sorted by descending score (ties by (u, v)).
StatusOr<std::vector<SimilarPair>> SimilarityJoin(const Graph& graph,
                                                  double threshold,
                                                  const JoinOptions& options);

/// The N globally most-similar distinct pairs (u < v), descending.
/// Ranking carries the per-query ±ε guarantee, so pairs within 2ε can
/// swap places relative to exact SimRank.
StatusOr<std::vector<SimilarPair>> TopPairs(const Graph& graph, size_t n,
                                            const JoinOptions& options);

}  // namespace simpush

#endif  // SIMPUSH_SIMPUSH_JOIN_H_
