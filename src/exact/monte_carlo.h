// Pairwise Monte-Carlo SimRank estimation: s(u,v) equals the probability
// that two independent √c-walks from u and v meet (same node, same step,
// both alive) — the first-meeting decomposition of Eq. (5) partitions
// exactly this event. Used to build pooled ground truth on graphs too
// large for the dense power method (paper §5.1 methodology).

#ifndef SIMPUSH_EXACT_MONTE_CARLO_H_
#define SIMPUSH_EXACT_MONTE_CARLO_H_

#include <cstdint>

#include "common/rng.h"
#include "common/status.h"
#include "walk/walker.h"

namespace simpush {

/// Options for pairwise MC estimation.
struct MonteCarloOptions {
  double decay = 0.6;          ///< SimRank decay factor c.
  uint64_t num_samples = 100000;
  uint64_t seed = 1;
};

/// Estimates s(u, v) by `num_samples` paired √c-walk trials.
/// Hoeffding: |error| <= sqrt(ln(2/delta) / (2·num_samples)) w.p. 1-delta.
StatusOr<double> EstimateSimRankPair(const Graph& graph, NodeId u, NodeId v,
                                     const MonteCarloOptions& options);

/// Same, reusing a caller-provided walker/rng (for batch ground truth).
double EstimateSimRankPair(const Walker& walker, NodeId u, NodeId v,
                           uint64_t num_samples, Rng* rng);

}  // namespace simpush

#endif  // SIMPUSH_EXACT_MONTE_CARLO_H_
