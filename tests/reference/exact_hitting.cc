#include "reference/exact_hitting.h"

namespace simpush {

std::vector<std::vector<double>> ExactHittingProbabilities(
    const Graph& graph, NodeId source, uint32_t max_level, double sqrt_c) {
  const NodeId n = graph.num_nodes();
  std::vector<std::vector<double>> h(max_level + 1,
                                     std::vector<double>(n, 0.0));
  h[0][source] = 1.0;
  for (uint32_t level = 0; level < max_level; ++level) {
    for (NodeId v = 0; v < n; ++v) {
      const double mass = h[level][v];
      if (mass == 0.0) continue;
      const uint32_t deg = graph.InDegree(v);
      if (deg == 0) continue;
      const double share = sqrt_c * mass / deg;
      for (NodeId w : graph.InNeighbors(v)) {
        h[level + 1][w] += share;
      }
    }
  }
  return h;
}

}  // namespace simpush
