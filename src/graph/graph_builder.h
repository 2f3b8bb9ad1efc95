// Mutable edge-list accumulator that finalizes into an immutable CSR Graph.

#ifndef SIMPUSH_GRAPH_GRAPH_BUILDER_H_
#define SIMPUSH_GRAPH_GRAPH_BUILDER_H_

#include <utility>
#include <vector>

#include "common/status.h"
#include "graph/graph.h"

namespace simpush {

/// Accumulates directed edges and builds the dual-CSR Graph.
///
/// Usage:
///   GraphBuilder b(n);
///   b.AddEdge(u, v);             // directed u -> v
///   auto graph = std::move(b).Build();
class GraphBuilder {
 public:
  /// Creates a builder for a graph with exactly `num_nodes` nodes.
  explicit GraphBuilder(NodeId num_nodes) : num_nodes_(num_nodes) {}

  /// Appends the directed edge src -> dst. Out-of-range endpoints are
  /// rejected at Build() time.
  void AddEdge(NodeId src, NodeId dst) { edges_.emplace_back(src, dst); }

  /// Appends both directions (for undirected input, §2.1 of the paper).
  void AddUndirectedEdge(NodeId a, NodeId b) {
    AddEdge(a, b);
    AddEdge(b, a);
  }

  /// Marks the finished graph as symmetric (built from undirected input).
  void MarkSymmetric() { symmetric_ = true; }

  /// Sets the node count, for callers that learn n only after the last
  /// edge (the edge-list loader compacts ids as it reads them).
  void SetNumNodes(NodeId num_nodes) { num_nodes_ = num_nodes; }

  /// Sorts adjacency, optionally removes duplicate edges, and produces
  /// the immutable graph. Self-loops are kept. The builder is consumed.
  ///
  /// A counting sort by source places each edge in its row, then each
  /// row is sorted (and deduped) in place and the rows are compacted:
  /// O(n + m log d_max), the same (src, dst) order a global sort gives.
  StatusOr<Graph> Build(bool dedupe = true) &&;

 private:
  NodeId num_nodes_;
  bool symmetric_ = false;
  std::vector<std::pair<NodeId, NodeId>> edges_;
};

}  // namespace simpush

#endif  // SIMPUSH_GRAPH_GRAPH_BUILDER_H_
