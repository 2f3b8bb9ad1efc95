// Immutable directed graph in compressed sparse row (CSR) form with both
// out-adjacency and in-adjacency, as required by SimRank algorithms
// (forward pushes walk out-edges, Source-Push and √c-walks walk in-edges).

#ifndef SIMPUSH_GRAPH_GRAPH_H_
#define SIMPUSH_GRAPH_GRAPH_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"

namespace simpush {

/// Node identifier. Dense in [0, n).
using NodeId = uint32_t;
/// Edge index into the CSR arrays.
using EdgeId = uint64_t;

constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);

/// Immutable CSR graph. Construct via GraphBuilder or the loaders in
/// graph_io.h; the class itself only offers O(1) adjacency access.
class Graph {
 public:
  Graph() = default;

  /// Number of nodes n.
  NodeId num_nodes() const { return num_nodes_; }
  /// Number of directed edges m.
  EdgeId num_edges() const { return out_targets_.size(); }

  /// Out-neighbors O(v): nodes w with edge v->w.
  std::span<const NodeId> OutNeighbors(NodeId v) const {
    return {out_targets_.data() + out_offsets_[v],
            out_targets_.data() + out_offsets_[v + 1]};
  }
  /// In-neighbors I(v): nodes w with edge w->v.
  std::span<const NodeId> InNeighbors(NodeId v) const {
    return {in_sources_.data() + in_offsets_[v],
            in_sources_.data() + in_offsets_[v + 1]};
  }

  /// Out-degree d_O(v).
  uint32_t OutDegree(NodeId v) const {
    return static_cast<uint32_t>(out_offsets_[v + 1] - out_offsets_[v]);
  }
  /// In-degree d_I(v).
  uint32_t InDegree(NodeId v) const {
    return static_cast<uint32_t>(in_offsets_[v + 1] - in_offsets_[v]);
  }

  /// k-th in-neighbor of v, 0 <= k < InDegree(v). Used by the walk engine
  /// to draw a uniform in-neighbor without materializing the span.
  NodeId InNeighborAt(NodeId v, uint32_t k) const {
    return in_sources_[in_offsets_[v] + k];
  }

  /// First in-CSR index of v's row: v's in-edges occupy
  /// [InRowBegin(v), InRowBegin(v) + InDegree(v)). Exposed so samplers
  /// can keep per-in-edge state flattened parallel to the CSR. Valid
  /// for v in [0, n]: InRowBegin(n) == m, so clean-run lengths can be
  /// computed as InRowBegin(w) - InRowBegin(v).
  EdgeId InRowBegin(NodeId v) const { return in_offsets_[v]; }

  /// Out-CSR analogue of InRowBegin, same [0, n] domain. Used by
  /// PendingEdits::Merge and DynamicGraph::SnapshotDelta to bulk-copy
  /// runs of untouched rows straight out of a previous generation's
  /// arrays.
  EdgeId OutRowBegin(NodeId v) const { return out_offsets_[v]; }

  /// In-CSR entry at flat index e (the source of in-edge e).
  NodeId InSourceAt(EdgeId e) const { return in_sources_[e]; }

  /// Prefetch hints for the batched walk kernel: issue the loads for
  /// many walks' next steps before consuming any of them so the cache
  /// misses overlap instead of serializing. No-ops on compilers without
  /// __builtin_prefetch.
  void PrefetchInOffsets(NodeId v) const {
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(&in_offsets_[v], /*rw=*/0, /*locality=*/1);
#endif
  }
  void PrefetchInSource(EdgeId e) const {
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(&in_sources_[e], /*rw=*/0, /*locality=*/1);
#endif
  }

  /// True when the graph was built from an undirected edge list (every
  /// edge has its reverse). Informational only.
  bool is_symmetric() const { return is_symmetric_; }

  /// Approximate heap footprint of the CSR arrays in bytes.
  size_t MemoryBytes() const;

  /// Validates CSR invariants (monotone offsets, targets in range,
  /// in/out edge counts equal). Used by tests and loaders.
  Status Validate() const;

  /// Basic degree statistics for reporting (Table 4 style).
  struct DegreeStats {
    double avg_out_degree = 0;
    uint32_t max_out_degree = 0;
    uint32_t max_in_degree = 0;
    NodeId num_sink_nodes = 0;    // out-degree 0
    NodeId num_source_nodes = 0;  // in-degree 0
  };
  DegreeStats ComputeDegreeStats() const;

  /// Builds a graph directly from an out-adjacency CSR whose per-node
  /// target runs are already sorted ascending (parallel edges adjacent).
  /// The in-CSR is derived by a counting sort that preserves source
  /// order, so both adjacency directions come out canonically sorted.
  /// Validates the CSR invariants and the per-node sortedness. This is
  /// the one in-CSR derivation: GraphBuilder, the SPG1 loader and
  /// snapshot rebuilds all finish here (no global edge sort).
  static StatusOr<Graph> FromSortedCsr(NodeId num_nodes,
                                       std::vector<EdgeId> out_offsets,
                                       std::vector<NodeId> out_targets,
                                       bool symmetric = false);

  /// Builds a graph from BOTH adjacency directions at once, skipping
  /// the O(m) in-CSR counting sort and per-edge validation that
  /// FromSortedCsr pays. Only O(n) structural invariants are checked
  /// (array sizes, offset endpoints, monotonicity, equal edge counts);
  /// row contents — per-node sortedness, targets in range, and out/in
  /// consistency — are the caller's proof obligation. This is the
  /// publish fast path: PendingEdits::Merge (every registry rebuild)
  /// and DynamicGraph::SnapshotDelta guarantee those properties by
  /// construction (clean rows are copied from an already-canonical
  /// base; edited rows are merged from a sorted base row or re-sorted
  /// locally), and randomized property suites pin both results to be
  /// byte-identical to a full DynamicGraph::Snapshot().
  static StatusOr<Graph> FromSortedCsrPair(NodeId num_nodes,
                                           std::vector<EdgeId> out_offsets,
                                           std::vector<NodeId> out_targets,
                                           std::vector<EdgeId> in_offsets,
                                           std::vector<NodeId> in_sources,
                                           bool symmetric = false);

 private:
  NodeId num_nodes_ = 0;
  bool is_symmetric_ = false;
  // Out-adjacency CSR.
  std::vector<EdgeId> out_offsets_;  // size n+1
  std::vector<NodeId> out_targets_;  // size m
  // In-adjacency CSR.
  std::vector<EdgeId> in_offsets_;  // size n+1
  std::vector<NodeId> in_sources_;  // size m
};

}  // namespace simpush

#endif  // SIMPUSH_GRAPH_GRAPH_H_
