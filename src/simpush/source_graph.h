// The source graph G_u produced by Source-Push (§3, §4.1): a level-
// structured view of the nodes reached while propagating hitting
// probabilities from the query node u. Level 0 holds u only; level ℓ
// holds every node v with h^(ℓ)(u, v) > 0; G_u edges run from level ℓ+1
// (in-neighbors) to level ℓ, and for any node at level ℓ < L whose next
// level is whole, its G_u in-neighborhood equals its full
// in-neighborhood in G.
//
// With level detection on and L >= 2, the two deepest levels are
// partial: level L holds only the nodes in C_L, and (when L >= 3)
// level L-1 only those in C_{L-1} ∪ O(C_L), where C_ℓ is the set of
// nodes whose level-ℓ walk count reached the detection threshold (see
// source_push.cc). Every attention node and every node the hitting
// table reads is present whenever Lemma 5's event holds.
//
// A level stores membership only. After Source-Push no stage reads the
// h of a node that is not an attention occurrence: Algorithm 3 reads
// level membership, Algorithms 4-5 the attention set, which keeps each
// occurrence's exact h.
//
// G_u therefore does not store explicit edge lists: the adjacency of G
// restricted to consecutive level sets *is* the G_u adjacency, which is
// how Algorithms 3–4 traverse it.
//
// Storage is flat: each level is a node-id vector and the attention
// sets are id vectors, all of which keep their capacity across Reset()
// so a long-lived engine rebuilds G_u every query without touching the
// heap.

#ifndef SIMPUSH_SIMPUSH_SOURCE_GRAPH_H_
#define SIMPUSH_SIMPUSH_SOURCE_GRAPH_H_

#include <cassert>
#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace simpush {

/// Dense id for an attention node *occurrence*: the same graph node can
/// be an attention node on several levels (Fig. 1(a)), each occurrence
/// getting its own id.
using AttentionId = uint32_t;

/// One attention-node occurrence.
struct AttentionNode {
  NodeId node = kInvalidNode;
  uint32_t level = 0;       ///< ℓ in [1, L].
  double hitting_prob = 0;  ///< h^(ℓ)(u, node), >= ε_h by definition.
};

/// Level-structured source graph G_u plus the attention sets A_u^(ℓ).
class SourceGraph {
 public:
  /// Max level L (levels are 0..L; level 0 is the query node).
  uint32_t max_level() const { return max_level_; }
  void set_max_level(uint32_t level) {
    max_level_ = level;
    if (levels_.size() < level + 1) levels_.resize(level + 1);
  }

  /// Clears all contents (levels, attention sets) while keeping every
  /// buffer's capacity, then sets the new max level. O(L) — not O(n).
  void Reset(uint32_t max_level);

  /// Appends one member to a level. Contract: a level's members are
  /// appended in strictly ascending node order (Source-Push builds each
  /// level from an ascending bitmask scan or pull), so readers may rely
  /// on node order.
  void AddEntry(uint32_t level, NodeId node) {
    assert(levels_[level].empty() || levels_[level].back() < node);
    levels_[level].push_back(node);
  }

  /// Members of one level, ascending; empty for levels beyond
  /// max_level(). Under level detection, levels L-1 and L hold only the
  /// nodes Source-Push evaluated there (see the file comment).
  const std::vector<NodeId>& Level(uint32_t level) const;

  /// Registers an attention-node occurrence; returns its dense id.
  /// Contract: a level's occurrences are registered in strictly
  /// ascending node order, so AttentionOnLevel ascends by node and
  /// LookupAttention can binary search.
  AttentionId AddAttentionNode(NodeId node, uint32_t level, double h);

  /// All attention occurrences, id-indexed.
  const std::vector<AttentionNode>& attention_nodes() const {
    return attention_;
  }
  /// Attention ids on level ℓ (A_u^(ℓ)), ascending by node.
  const std::vector<AttentionId>& AttentionOnLevel(uint32_t level) const;

  /// Dense attention id of (level, node); returns false if not attention.
  bool LookupAttention(uint32_t level, NodeId node, AttentionId* id) const;

  size_t num_attention() const { return attention_.size(); }

  /// Total node occurrences across levels 1..L (|G_u| minus the root).
  size_t TotalNodeOccurrences() const;

 private:
  uint32_t max_level_ = 0;
  // levels_[ℓ]: the members of level ℓ, ascending. levels_[0] = { u }.
  // Sized to the largest max level ever seen; inner vectors pooled.
  std::vector<std::vector<NodeId>> levels_;
  std::vector<AttentionNode> attention_;
  // attention_on_level_[ℓ]: ids of attention occurrences at level ℓ,
  // ascending by node (AddAttentionNode's contract).
  std::vector<std::vector<AttentionId>> attention_on_level_;
};

}  // namespace simpush

#endif  // SIMPUSH_SIMPUSH_SOURCE_GRAPH_H_
