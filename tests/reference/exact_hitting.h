// Exact hitting probabilities h^(l)(u, w): the probability a √c-walk
// from u is at node w at step l. The reference the Monte-Carlo walk
// tests and the Source-Push tests check the engine against.

#ifndef SIMPUSH_TESTS_REFERENCE_EXACT_HITTING_H_
#define SIMPUSH_TESTS_REFERENCE_EXACT_HITTING_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace simpush {

/// Exact hitting probabilities h^(l)(u, ·) for l = 0..max_level computed
/// by dense dynamic programming over the in-adjacency (O(m) per level).
std::vector<std::vector<double>> ExactHittingProbabilities(
    const Graph& graph, NodeId source, uint32_t max_level, double sqrt_c);

}  // namespace simpush

#endif  // SIMPUSH_TESTS_REFERENCE_EXACT_HITTING_H_
