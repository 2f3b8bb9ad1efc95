// Deterministic synthetic graph generators used as stand-ins for the
// paper's web-scale datasets (eval/datasets.h) and by property tests.

#ifndef SIMPUSH_GRAPH_GENERATORS_H_
#define SIMPUSH_GRAPH_GENERATORS_H_

#include <cstdint>

#include "common/status.h"
#include "graph/graph.h"

namespace simpush {

/// Erdős–Rényi G(n, m): `num_edges` directed edges drawn uniformly
/// (without duplicates, without self-loops).
StatusOr<Graph> GenerateErdosRenyi(NodeId num_nodes, EdgeId num_edges,
                                   uint64_t seed, bool undirected = false);

/// Barabási–Albert preferential attachment: each new node attaches
/// `edges_per_node` out-edges to existing nodes with probability
/// proportional to (in-degree + 1). Produces a power-law in-degree tail.
StatusOr<Graph> GenerateBarabasiAlbert(NodeId num_nodes,
                                       uint32_t edges_per_node, uint64_t seed,
                                       bool undirected = false);

/// Chung–Lu power-law: node weights w_i ∝ (i+1)^(-1/(gamma-1)); edge (i,j)
/// sampled with probability ∝ w_i·w_j until ~num_edges edges accepted.
/// gamma ≈ 2.1–3.0 matches web/social graphs; this is the primary
/// stand-in generator for the paper's datasets.
StatusOr<Graph> GenerateChungLu(NodeId num_nodes, EdgeId num_edges,
                                double gamma, uint64_t seed,
                                bool undirected = false);

/// R-MAT / Kronecker recursive-matrix generator (Chakrabarti et al.):
/// 2^scale nodes, `num_edges` directed edges placed by recursively
/// descending the adjacency matrix with quadrant probabilities
/// (a, b, c, 1-a-b-c). Default parameters (0.57, 0.19, 0.19) are the
/// Graph500 values and yield the skewed, locally dense structure of web
/// crawls — the character the paper highlights for Twitter/ClueWeb.
/// Self-loops are dropped; duplicate placements are retried.
StatusOr<Graph> GenerateRMat(uint32_t scale, EdgeId num_edges, uint64_t seed,
                             double a = 0.57, double b = 0.19,
                             double c = 0.19, bool undirected = false);

/// Watts–Strogatz small world: ring lattice of even degree k, each edge
/// rewired with probability beta. Undirected (symmetrized). Used to test
/// behaviour on high-clustering, non-power-law graphs — the regime where
/// PRSim's power-law assumption breaks but SimPush's guarantees hold.
StatusOr<Graph> GenerateWattsStrogatz(NodeId num_nodes, uint32_t k,
                                      double beta, uint64_t seed);

/// Stochastic block model: `num_blocks` equal-size communities; an edge
/// between nodes in the same block is sampled with probability p_in and
/// across blocks with p_out. Directed. SimRank's "similar nodes are
/// referenced by similar nodes" intuition makes within-block pairs score
/// high, which the recommendation example exploits.
StatusOr<Graph> GenerateStochasticBlockModel(NodeId num_nodes,
                                             uint32_t num_blocks, double p_in,
                                             double p_out, uint64_t seed);

}  // namespace simpush

#endif  // SIMPUSH_GRAPH_GENERATORS_H_
