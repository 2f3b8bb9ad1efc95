#include "exact/monte_carlo.h"

#include <cmath>

namespace simpush {

StatusOr<double> EstimateSimRankPair(const Graph& graph, NodeId u, NodeId v,
                                     const MonteCarloOptions& options) {
  if (u >= graph.num_nodes() || v >= graph.num_nodes()) {
    return Status::InvalidArgument("node out of range");
  }
  if (options.num_samples == 0) {
    return Status::InvalidArgument("num_samples must be positive");
  }
  if (u == v) return 1.0;
  Walker walker(graph, std::sqrt(options.decay));
  Rng rng(options.seed);
  return EstimateSimRankPair(walker, u, v, options.num_samples, &rng);
}

double EstimateSimRankPair(const Walker& walker, NodeId u, NodeId v,
                           uint64_t num_samples, Rng* rng) {
  if (u == v) return 1.0;
  uint64_t meets = 0;
  for (uint64_t i = 0; i < num_samples; ++i) {
    if (walker.PairWalkMeets(u, v, rng)) ++meets;
  }
  return static_cast<double>(meets) / static_cast<double>(num_samples);
}

}  // namespace simpush
