// Hitting probabilities between attention nodes within G_u
// (Definition 5, Equation 12, Algorithm 3).
//
// For every node occurrence (ℓ, v) of G_u we maintain a sparse vector
// over attention-node targets at deeper levels: entry (a, p) means a
// √c-walk from v confined to G_u reaches attention occurrence a (at
// level ℓ_a > ℓ, or ℓ_a = ℓ for the self entry) with probability
// p = h̃^(ℓ_a - ℓ)(v, a). Vectors are built from level ℓ+1 down to
// level 1: v merges the vectors of its level-(ℓ+1) in-neighbors that
// hold one (the holders), scaled by √c/d_I(v) (d_I(v) equals v's G_u
// in-degree whenever that is non-empty). Each level either pulls
// (every member walks its in-row) or pushes (the holders' out-rows are
// bucketed by receiver), whichever scans fewer weighted edges; both
// merge the same spans in the same order, so the table is bit-identical
// either way. A level with no holders only emits attention self
// entries.
//
// Vectors live in one pooled entry array per level (CSR-style spans
// instead of per-node heap vectors), so a table owned by a long-lived
// engine is rebuilt every query without allocating.

#ifndef SIMPUSH_SIMPUSH_HITTING_H_
#define SIMPUSH_SIMPUSH_HITTING_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/deadline.h"
#include "common/status.h"
#include "graph/graph.h"
#include "simpush/source_graph.h"

namespace simpush {

class QueryWorkspace;

/// Direction rule of the hitting-table build: level ℓ is pulled iff
/// Σ d_I(members of level ℓ) <= kHittingPushEdgeCost · Σ d_O(holders),
/// the holders being the level-(ℓ+1) nodes with a vector; otherwise it
/// is pushed. A pushed out-edge costs about twice a pulled in-edge: the
/// push scans each holder out-row twice (count, then fill) and touches
/// every hit three times (count, fill, merge). Measured on the web graph
/// of docs/performance.md at ε = 0.05 (60 sources, every level timed
/// both ways), hitting-table time per query was 1.22 ms at cost 1,
/// 1.04 ms at 2 (within 0.3% of choosing each level's faster direction
/// in hindsight, and flat from 1.4 to 3.3) and 1.70 ms at 1/2.
constexpr uint64_t kHittingPushEdgeCost = 2;

/// One (attention id, probability) entry of a hitting vector.
using HittingEntry = std::pair<AttentionId, double>;

/// Sparse hitting-probability vector: view over a node's entries,
/// sorted by attention id.
using HittingVector = std::span<const HittingEntry>;

/// All within-G_u hitting probabilities needed by Algorithm 4.
class HittingTable {
 public:
  /// Vector of node v at level ℓ; empty if v holds no probability mass
  /// toward any attention target.
  HittingVector VectorAt(uint32_t level, NodeId v) const;

  /// h̃^(i)(w, target) where i = level(target) - level(w); 0 if absent.
  double Probability(uint32_t level, NodeId v, AttentionId target) const;

  /// Number of stored non-empty vectors (for stats/tests).
  size_t NumVectors() const;

  /// Total stored entries (for stats/tests).
  size_t NumEntries() const;

  /// Clears contents while keeping pooled capacity.
  void Reset(uint32_t max_level);

 private:
  friend Status ComputeHittingTable(const Graph& graph,
                                    const SourceGraph& gu, double sqrt_c,
                                    QueryWorkspace* workspace,
                                    HittingTable* table,
                                    const CancelToken* cancel);
  // One node's span into the level's entry pool.
  struct NodeSpan {
    NodeId node;
    uint32_t begin;
    uint32_t end;
  };
  struct LevelVectors {
    std::vector<NodeSpan> nodes;  ///< Sorted by node id.
    std::vector<HittingEntry> pool;
  };
  // Levels 0..num_levels_-1 are live; deeper slots retain capacity.
  std::vector<LevelVectors> per_level_;
  uint32_t num_levels_ = 0;
};

/// Runs Algorithm 3 over G_u into `table`, using `workspace` for dense
/// scratch. O(m·log(1/ε)/ε) worst case (Lemma 6).
///
/// `cancel`, when non-null, is polled every kCancelCheckStride pulled
/// members, pushed holder out-edges or merged push receivers; a fired
/// token aborts with kCancelled/kDeadlineExceeded and leaves the table
/// partially built, for the caller to discard. The poll reads state
/// only, so an unfired token leaves the table bit-identical.
Status ComputeHittingTable(const Graph& graph, const SourceGraph& gu,
                           double sqrt_c, QueryWorkspace* workspace,
                           HittingTable* table,
                           const CancelToken* cancel = nullptr);

}  // namespace simpush

#endif  // SIMPUSH_SIMPUSH_HITTING_H_
