// √c-walk engine (Definition 2 of the paper): a random walk that at each
// node stops with probability 1-√c, and with probability √c jumps to a
// uniformly random in-neighbor. A node with no in-neighbors always stops.
//
// The per-step survival trials are i.i.d. Bernoulli(√c), so the number
// of steps a walk survives decay is geometric: P(length >= l) = √c^l.
// The engine samples that length with ONE RNG draw up front (inverse
// CDF) instead of a Bernoulli trial per step — the walk then only draws
// randomness to pick in-neighbors, roughly halving RNG work on the
// level-detection hot path. Walks still end early at dangling nodes.

#ifndef SIMPUSH_WALK_WALKER_H_
#define SIMPUSH_WALK_WALKER_H_

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "graph/graph.h"

namespace simpush {

/// Decay length of a √c-walk from one uniform draw u in [0, 1), via the
/// inverse geometric CDF: P(floor(log_√c(1-u)) >= l) = √c^l. The √c
/// dependence enters through `inv_log_sqrt_c` = 1/log(√c), precomputed
/// by the caller so batched sampling does one log per walk, not two.
/// Capped at `cap`; the !(length < cap) form also catches the inf at
/// u → 1 (survival → 0).
inline uint32_t WalkLengthForUniform(double u, double inv_log_sqrt_c,
                                     uint32_t cap) {
  const double survival = 1.0 - u;  // In (0, 1].
  const double length = std::log(survival) * inv_log_sqrt_c;
  if (!(length < cap)) return cap;
  return static_cast<uint32_t>(length);
}

/// One recorded √c-walk: positions[0] is the start node, positions[l] the
/// node reached at step l. The walk stopped after the last position.
struct Walk {
  std::vector<NodeId> positions;
  size_t length() const { return positions.empty() ? 0 : positions.size() - 1; }
};

/// Samples √c-walks over a fixed graph.
class Walker {
 public:
  /// Decay-length cap: P(length >= 4096) < 1e-18 even at c = 0.98, so
  /// truncation is far below floating-point resolution.
  static constexpr uint32_t kMaxWalkLength = 4096;

  /// The graph must outlive the walker. `sqrt_c` is √c, e.g. √0.6.
  Walker(const Graph& graph, double sqrt_c)
      : graph_(graph),
        sqrt_c_(sqrt_c),
        inv_log_sqrt_c_(1.0 / std::log(sqrt_c)) {}

  /// Samples the decay-determined length of a √c-walk (the number of
  /// survival steps) in a single RNG draw, capped at `cap`.
  uint32_t SampleWalkLength(Rng* rng, uint32_t cap = kMaxWalkLength) const {
    return WalkLengthForUniform(rng->NextDouble(), inv_log_sqrt_c_, cap);
  }

  /// 1/log(√c), for callers batching WalkLengthForUniform draws.
  double inv_log_sqrt_c() const { return inv_log_sqrt_c_; }

  /// Samples one full √c-walk from `start`, recording every position.
  Walk SampleWalk(NodeId start, Rng* rng) const;

  /// Samples a walk and invokes visit(step, node) for each step >= 1
  /// (the start node itself is step 0 and not reported). The callback is
  /// a template parameter so the per-step dispatch inlines — no
  /// std::function on the level-detection hot path. A walk stops after
  /// `cap` steps, for callers that read no deeper level.
  template <typename Visit>
  void SampleWalkVisit(NodeId start, Rng* rng, Visit&& visit,
                       uint32_t cap = kMaxWalkLength) const {
    const uint32_t length = SampleWalkLength(rng, cap);
    NodeId current = start;
    for (uint32_t step = 1; step <= length; ++step) {
      const uint32_t deg = graph_.InDegree(current);
      if (deg == 0) return;  // Dangling: the walk must stop.
      current = graph_.InNeighborAt(
          current, static_cast<uint32_t>(rng->NextBounded(deg)));
      visit(step, current);
    }
  }

  /// Single transition of a √c-walk: returns kInvalidNode if the walk
  /// stops (decay or dangling node), else the next node. Used where a
  /// walk's continuation depends on external state (paired walks).
  NodeId Step(NodeId current, Rng* rng) const;

  /// True iff two independent √c-walks from u and v, sampled with `rng`,
  /// ever meet (same node at the same step while both alive). By the
  /// first-meeting decomposition (Eq. 5) this is a Bernoulli trial with
  /// success probability exactly s(u, v) for u != v.
  bool PairWalkMeets(NodeId u, NodeId v, Rng* rng) const;

  double sqrt_c() const { return sqrt_c_; }
  const Graph& graph() const { return graph_; }

 private:
  const Graph& graph_;
  double sqrt_c_;
  double inv_log_sqrt_c_;
};

}  // namespace simpush

#endif  // SIMPUSH_WALK_WALKER_H_
