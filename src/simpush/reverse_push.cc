#include "simpush/reverse_push.h"

#include <utility>
#include <vector>

#include "simpush/workspace.h"

namespace simpush {

Status ReversePush(const Graph& graph, const SourceGraph& gu,
                   const std::vector<double>& gamma, double sqrt_c,
                   double eps_h, QueryWorkspace* workspace,
                   std::vector<double>* scores, ReversePushStats* stats,
                   const CancelToken* cancel) {
  workspace->Prepare(graph.num_nodes());
  // Residues of the level being pushed and of the level below, in
  // zero-restored accumulators with their touched lists. With ε_h > 0
  // every share is strictly positive, so a slot holding +0.0 is
  // untouched on this level and its first touch 0.0 + x is exactly x.
  std::vector<double>& current = workspace->accum_a;
  std::vector<double>& next = workspace->accum_b;
  std::vector<NodeId>& current_touched = workspace->frontier_a;
  std::vector<NodeId>& next_touched = workspace->frontier_b;
  // Zeroes every slot still holding a residue, for a cancelled return.
  const auto restore = [&] {
    for (const NodeId v : current_touched) current[v] = 0.0;
    for (const NodeId v : next_touched) next[v] = 0.0;
  };

  ReversePushStats local_stats;
  const uint32_t max_level = gu.max_level();
  uint32_t since_poll = 0;

  for (uint32_t level = max_level; level >= 1; --level) {
    // Inject the initial residues r^(ℓ)(w) = h^(ℓ)(u,w)·γ^(ℓ)(w) of the
    // attention nodes living on this level; they combine with residues
    // that arrived from deeper levels (§4.3's merged push).
    for (AttentionId id : gu.AttentionOnLevel(level)) {
      const AttentionNode& w = gu.attention_nodes()[id];
      const double residue = w.hitting_prob * gamma[id];
      if (residue == 0.0) continue;
      if (current[w.node] == 0.0) current_touched.push_back(w.node);
      current[w.node] += residue;
    }

    for (NodeId vp : current_touched) {
      // Cancellation poll every kCancelCheckStride pushed nodes; the
      // poll reads state only, so an unfired token cannot perturb the
      // (fully deterministic) push order or the scores.
      if (++since_poll >= kCancelCheckStride) {
        since_poll = 0;
        if (Status status = CheckCancel(cancel); !status.ok()) {
          restore();
          return status;
        }
      }
      const double residue = current[vp];
      current[vp] = 0.0;
      // Push threshold: √c·r^(ℓ')(v') >= ε_h (Algorithm 5 line 4);
      // below-threshold residue is dropped — that is the approximation
      // ĥ introduces.
      if (sqrt_c * residue < eps_h) continue;
      ++local_stats.pushes;
      for (NodeId v : graph.OutNeighbors(vp)) {
        ++local_stats.edges_traversed;
        const double share = sqrt_c * residue / graph.InDegree(v);
        if (level > 1) {
          if (next[v] == 0.0) next_touched.push_back(v);
          next[v] += share;
        } else {
          (*scores)[v] += share;
        }
      }
    }
    // Every consumed residue was zeroed as it was read; the array then
    // serves as the next level's accumulator after the swap.
    current_touched.clear();
    std::swap(current, next);
    std::swap(current_touched, next_touched);
  }

  if (stats != nullptr) *stats = local_stats;
  return Status::OK();
}

}  // namespace simpush
