#include "baselines/eta_estimator.h"

#include "common/rng.h"
#include "walk/walker.h"

namespace simpush {

namespace {

double EstimateEta(const Graph& graph, double sqrt_c, NodeId w,
                   uint32_t samples, Rng* rng) {
  Walker walker(graph, sqrt_c);
  uint32_t never_met = 0;
  for (uint32_t i = 0; i < samples; ++i) {
    if (!walker.PairWalkMeets(w, w, rng)) ++never_met;
  }
  return static_cast<double>(never_met) / static_cast<double>(samples);
}

}  // namespace

std::vector<double> EstimateEtaAllNodes(const Graph& graph, double sqrt_c,
                                        uint32_t samples_per_node,
                                        uint64_t seed) {
  const NodeId n = graph.num_nodes();
  std::vector<double> eta(n, 1.0);
  Rng rng(seed);
  for (NodeId w = 0; w < n; ++w) {
    // Nodes with < 2 in-neighbors: two walks from w take the same forced
    // first step (if any); they meet immediately iff d_I(w) == 1 and
    // both survive. Sampling handles this uniformly; no special case.
    eta[w] = EstimateEta(graph, sqrt_c, w, samples_per_node, &rng);
  }
  return eta;
}

}  // namespace simpush
