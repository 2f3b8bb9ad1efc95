// Small hand-analyzable topologies for tests: a cycle, a star, a
// complete graph and a grid.

#ifndef SIMPUSH_TESTS_REFERENCE_GRAPHS_H_
#define SIMPUSH_TESTS_REFERENCE_GRAPHS_H_

#include "common/status.h"
#include "graph/graph.h"

namespace simpush {

/// Directed cycle 0 -> 1 -> ... -> n-1 -> 0. Hand-analyzable SimRank.
StatusOr<Graph> GenerateCycle(NodeId num_nodes);

/// Star: spokes 1..n-1 each point to hub 0 (and hub to spokes when
/// `bidirectional`). SimRank between spokes is analytic: c.
StatusOr<Graph> GenerateStar(NodeId num_nodes, bool bidirectional = false);

/// Complete directed graph without self-loops; analytic SimRank.
StatusOr<Graph> GenerateComplete(NodeId num_nodes);

/// 2-D grid with edges pointing right and down: a sparse deterministic
/// topology with varied in-degrees.
StatusOr<Graph> GenerateGrid(NodeId rows, NodeId cols);

}  // namespace simpush

#endif  // SIMPUSH_TESTS_REFERENCE_GRAPHS_H_
