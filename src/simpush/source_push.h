// Source-Push (Algorithm 2): detects the max level L via √c-walk
// sampling, then performs level-wise residue propagation of the hitting
// probabilities h^(ℓ)(u, ·) along in-edges, building G_u and the
// attention sets A_u^(ℓ).

#ifndef SIMPUSH_SIMPUSH_SOURCE_PUSH_H_
#define SIMPUSH_SIMPUSH_SOURCE_PUSH_H_

#include <cstdint>

#include "common/deadline.h"
#include "common/rng.h"
#include "common/status.h"
#include "graph/graph.h"
#include "simpush/options.h"
#include "simpush/source_graph.h"

namespace simpush {

class QueryWorkspace;

/// Source-Push computes a level by pulling (each node sums its
/// out-neighbors' shares) instead of pushing (each frontier node
/// scatters to its in-neighbors) once the frontier's in-edges exceed
/// m / kPullEdgeFraction. Both give bit-identical levels. A pull costs
/// about the same at any frontier size; a push grows with the frontier.
/// Re-checked with the zero-restored accumulator by timing every whole
/// level both ways on a 200k-node Chung-Lu web graph (m = 1.6M, ε = 0.05
/// and 0.02): a frontier with 1/4-1/2 of the in-edges pushed in
/// 2.5-3.8 ms against a 5.4-6.8 ms pull, and the pull won only above
/// about 7/8 of m. A fraction of 1/2 would save about 0.9 ms of a 25 ms
/// query there (17 of 258 whole levels lie between 1/4 and 1/2).
/// SourcePushTest.PullLevelsEqualNaivePushBitForBit, which needs every
/// graph it checks to take a pull level, passes at 1/4 and at 1/2.
constexpr EdgeId kPullEdgeFraction = 4;

/// Statistics reported by one Source-Push invocation.
struct SourcePushStats {
  uint32_t detected_level = 0;   ///< L (after capping by L*).
  uint64_t walks_sampled = 0;    ///< Level-detection walks actually run.
  size_t gu_node_occurrences = 0;  ///< Evaluated entries, levels >= 1.
  size_t num_attention = 0;
};

/// Level detection, Algorithm 2 lines 1-8: runs params.num_walks
/// √c-walks from u in waves of `wave_size` and returns the deepest level
/// L at which some node's visit count reached
/// params.level_count_threshold (0 if none). Leaves every visit in
/// workspace->level_visits (level ℓ's nodes in level_visits[ℓ]) and, in
/// workspace->level_candidates, every (level << 32 | node) key at levels
/// L-1 and L, and only there, whose count reached the threshold. L, the
/// candidates (as a set) and each level's visits (as a multiset) do not
/// depend on `wave_size`. A token that fires before the last wave
/// returns 0 with no candidates: the caller re-checks it and aborts.
/// Uses workspace->holder_span as count scratch. SourcePushInto runs
/// this first.
uint32_t DetectMaxLevel(const Graph& graph, NodeId u,
                        const DerivedParams& params, Rng* rng,
                        QueryWorkspace* workspace, uint64_t* walks_out,
                        const CancelToken* cancel, uint32_t wave_size);

/// Runs Algorithm 2 for query node u into `gu` (typically the one owned
/// by `workspace`, but any SourceGraph works — it is Reset first).
/// `params` carries ε_h, L*, and the walk budget; `rng` supplies the
/// level-detection randomness. Allocation-free once the workspace and
/// `gu` are warm.
///
/// `cancel`, when non-null, is polled every kCancelCheckStride walks
/// (level detection), pushed occurrences (push levels) and nodes (pull
/// levels); a fired token aborts with kCancelled/kDeadlineExceeded and
/// leaves both of the workspace's accumulators (accum_a, accum_b) all
/// +0.0, as every return does, so the next query on it is unaffected.
/// The poll only reads state — a run whose token never fires is
/// bit-identical to a run with cancel == nullptr (see
/// common/deadline.h).
Status SourcePushInto(const Graph& graph, NodeId u,
                      const SimPushOptions& options,
                      const DerivedParams& params, Rng* rng,
                      QueryWorkspace* workspace, SourceGraph* gu,
                      SourcePushStats* stats,
                      const CancelToken* cancel = nullptr);

}  // namespace simpush

#endif  // SIMPUSH_SIMPUSH_SOURCE_PUSH_H_
