// Single-pair SimRank s(u, v) on top of the SimPush machinery — one of
// the extensions §7 of the paper points toward ("batch SimRank
// processing" / cheaper query shapes).
//
// The source side is computed exactly as in Algorithm 1 stages 1-2:
// attention sets A_u^(ℓ), hitting probabilities h^(ℓ)(u,w), and
// last-meeting corrections γ^(ℓ)(w), giving residues
// r^(ℓ)(w) = h^(ℓ)(u,w)·γ^(ℓ)(w). Instead of Reverse-Push over all of
// G (stage 3, O(m log(1/ε))), the v side is estimated by Monte Carlo:
// a √c-walk from v visits one node per step, and accumulating r^(ℓ)(w)
// whenever the ℓ-th step lands on an attention occurrence w yields an
// unbiased estimate of
//     s⁺(u,v) = Σ_ℓ Σ_{w∈A_u^(ℓ)} h^(ℓ)(u,w)·γ^(ℓ)(w)·h^(ℓ)(v,w)
// (Equation 7), because P(walk at w at step ℓ) = h^(ℓ)(v,w). Each
// walk's accumulator is bounded by B = √c/(1-√c), so Hoeffding gives
// T = B²·ln(2/δ)/(2ε²) walks for an ±ε estimate of s⁺.
//
// The session amortizes the source side across many v, which is the
// point: checking u against a candidate set costs O(T·L) per candidate
// instead of a full single-source query. That source side is the
// single-source query's own (QueryRunner::SourceSide), so a session's
// L, A_u and residues are exactly those a query for u computes.
//
// A walk stops at the deepest level holding a residue (at most L), since
// no deeper step can add to the estimate.
//
// A session is immutable once created. Estimate is const and
// thread-safe: the walks for (u, v) come from one RNG stream keyed by
// (EngineCore::QuerySeed(u), v), so an estimate depends only on
// (options, u, v, walks) — not on the estimates before it or on the
// thread running it.

#ifndef SIMPUSH_SIMPUSH_SINGLE_PAIR_H_
#define SIMPUSH_SIMPUSH_SINGLE_PAIR_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/status.h"
#include "graph/graph.h"
#include "simpush/options.h"
#include "walk/walker.h"

namespace simpush {

/// Result of one pair estimate.
struct SinglePairResult {
  double score = 0;        ///< s̃(u, v); 1 when u == v.
  uint64_t walks_used = 0; ///< Monte-Carlo walks from v.
};

/// Immutable source-side state for pair queries u-vs-many.
class SinglePairSession {
 public:
  /// Prepares the source side for query node u (stages 1-2 of
  /// Algorithm 1). The graph must outlive the session.
  static StatusOr<SinglePairSession> Create(const Graph& graph, NodeId u,
                                            const SimPushOptions& options);

  /// Estimates s(u, v). `num_walks` == 0 uses the Hoeffding default for
  /// the session's (ε, δ). Safe to call concurrently; repeated calls
  /// return the same bits.
  StatusOr<SinglePairResult> Estimate(NodeId v, uint64_t num_walks = 0) const;

  /// The query node this session serves.
  NodeId source() const { return source_; }
  /// Max level L of the underlying source graph.
  uint32_t max_level() const { return max_level_; }
  /// Number of attention occurrences backing the residue tables.
  size_t num_attention() const { return num_attention_; }
  /// Hoeffding walk count used when Estimate is called with 0.
  uint64_t default_walks() const { return default_walks_; }

 private:
  SinglePairSession(const Graph& graph, NodeId u, double sqrt_c,
                    uint64_t query_seed)
      : walker_(graph, sqrt_c), source_(u), query_seed_(query_seed) {}

  Walker walker_;
  NodeId source_;
  uint64_t query_seed_;  // EngineCore::QuerySeed(source_).
  uint32_t max_level_ = 0;
  size_t num_attention_ = 0;
  uint64_t default_walks_ = 0;
  // residues_[ℓ-1]: (node, r^(ℓ)(node)) for attention occurrences on ℓ,
  // sorted by node — the per-step lookup in Estimate binary searches.
  std::vector<std::vector<std::pair<NodeId, double>>> residues_;
};

}  // namespace simpush

#endif  // SIMPUSH_SIMPUSH_SINGLE_PAIR_H_
