// QueryWorkspace: every piece of per-query scratch the SimPush stages
// need, owned in one place so a long-lived SimPushEngine answers
// queries with zero steady-state heap allocations.
//
// Ownership map (stage → scratch):
//   Source-Push (Alg. 2)   — level_visits + level_candidates, with
//                            holder_span as the per-node counts (walk
//                            level detection), demand_last/demand_prev
//                            (the nodes levels L and L-1 are evaluated
//                            at), accum_a/accum_b + scratch_bits
//                            (level-wise propagation: one accumulator
//                            holds the frontier's shares, the other the
//                            next level's, swapped per level; the
//                            frontier's members are G_u's previous
//                            level), source_graph (the G_u being built:
//                            level members, attention occurrences).
//   Hitting (Alg. 3)       — holder_span again, member_bits/receiver_bits,
//                            frontier_a (push-level buckets),
//                            attention_accum + scratch_bits (merge
//                            targets), hitting_table.
//   Last-meeting (Alg. 4)  — gamma_scratch, gamma.
//   Reverse-Push (Alg. 5)  — accum_a/accum_b + frontier_a/frontier_b
//                            (the stages are sequential).
//
// All buffers grow to a high-water mark and are logically cleared per
// query by epoch bumps or O(touched) clears; the one exception is a
// TouchedBits Reset, an n/64-word sweep. The per-node accumulators are
// zero-restored: every slot is +0.0 between uses, and a stage that
// writes slots (cancelled returns included) zeroes them before it
// returns.

#ifndef SIMPUSH_SIMPUSH_WORKSPACE_H_
#define SIMPUSH_SIMPUSH_WORKSPACE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/epoch_array.h"
#include "common/touched_bits.h"
#include "graph/graph.h"
#include "simpush/hitting.h"
#include "simpush/source_graph.h"

namespace simpush {

/// Reusable scratch for the γ computation (Algorithm 4).
struct GammaScratch {
  // Dense per-target accumulator + touched list.
  std::vector<double> acc;
  std::vector<AttentionId> touched;
  // pending[lvl]: (target, amount) pairs to subtract from targets at
  // level lvl — the ρ(j)·h̃(i-j)² terms of Eq. 11, emitted once when a
  // ρ-carrier is finalized instead of being re-scanned per level.
  std::vector<std::vector<std::pair<AttentionId, double>>> pending;

  void Prepare(size_t num_attention, uint32_t max_level) {
    if (acc.size() < num_attention) acc.resize(num_attention, 0.0);
    touched.clear();
    if (pending.size() < max_level + 1) pending.resize(max_level + 1);
    for (auto& level : pending) level.clear();
  }
};

/// All per-query scratch of the SimPush engine. One instance per engine
/// (or per worker thread); not thread-safe.
class QueryWorkspace {
 public:
  /// Readies the workspace for one query on an n-node graph: grows the
  /// dense arrays to n (no-op after the first query; new slots of the
  /// accumulators are +0.0). O(1) once warm.
  void Prepare(NodeId num_nodes);

  // --- Zero-restored per-node accumulators (all +0.0 between uses):
  // Source-Push's level shares and Reverse-Push's residues, each stage
  // in both, Reverse-Push with frontier_a/frontier_b as its touched
  // lists.
  std::vector<double> accum_a;
  std::vector<double> accum_b;
  std::vector<NodeId> frontier_a;
  std::vector<NodeId> frontier_b;

  // --- Source-Push level detection and demand levels.
  // level_visits[ℓ]: the node of every walk visit at level ℓ, in visit
  // order; lists are cleared per query and never shrunk.
  std::vector<std::vector<NodeId>> level_visits;
  // (level << 32 | node) keys at levels L-1 and L whose visit count
  // reached the detection threshold.
  std::vector<uint64_t> level_candidates;
  // The nodes Source-Push evaluates its two deepest levels at, both
  // ascending: C_L (level L) and C_{L-1} ∪ O(C_L) (level L-1).
  std::vector<NodeId> demand_last;
  std::vector<NodeId> demand_prev;

  // --- Hitting-table construction (see hitting.cc). Level detection
  // counts visits in holder_span before the hitting stage starts (each
  // use begins a new epoch). A pull level maps
  // each holder of level ℓ+1 to its packed pool-span bounds
  // (begin << 32 | end) in holder_span, so an in-edge costs ONE random
  // access; a push level keeps its per-receiver bucket bounds there
  // instead and its buckets in frontier_a. member_bits and
  // receiver_bits hold a push level's members and receivers; each
  // pushed level Resets them first.
  EpochArray<uint64_t> holder_span;
  TouchedBits member_bits;
  TouchedBits receiver_bits;
  std::vector<double> attention_accum;    // Zero-restored after each use.

  // --- Touched set shared by Source-Push (node-indexed: the push
  // scatter, pull-level frontier marks and the demand nodes) and the
  // hitting merge (attention-id-indexed). The stages run sequentially
  // and each Resets it on entry.
  TouchedBits scratch_bits;

  // --- Last-meeting probabilities.
  GammaScratch gamma_scratch;
  std::vector<double> gamma;

  // --- Per-query data products, pooled across queries.
  SourceGraph source_graph;
  HittingTable hitting_table;
};

}  // namespace simpush

#endif  // SIMPUSH_SIMPUSH_WORKSPACE_H_
