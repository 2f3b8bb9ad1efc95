// Monte-Carlo estimation of the last-meeting probability η(w) used by
// SLING and PRSim (§2.2, Eq. 3): the probability that two independent
// √c-walks started at w never meet at the same node and step. Both
// index-based baselines precompute η for all nodes, which is the bulk
// of their preprocessing cost — exactly the cost SimPush avoids by
// defining γ over G_u instead.

#ifndef SIMPUSH_BASELINES_ETA_ESTIMATOR_H_
#define SIMPUSH_BASELINES_ETA_ESTIMATOR_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace simpush {

/// Estimates η(w) for every node by `samples_per_node` paired-walk
/// trials each, nodes in id order on one stream seeded by `seed`.
/// O(n·samples/(1-√c)) total expected steps. SLING and PRSim both call
/// it once, when they build their index.
std::vector<double> EstimateEtaAllNodes(const Graph& graph, double sqrt_c,
                                        uint32_t samples_per_node,
                                        uint64_t seed);

}  // namespace simpush

#endif  // SIMPUSH_BASELINES_ETA_ESTIMATOR_H_
