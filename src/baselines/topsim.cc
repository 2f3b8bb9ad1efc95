#include "baselines/topsim.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <vector>

namespace simpush {

StatusOr<std::vector<double>> TopSim::Query(NodeId u) {
  if (u >= graph_.num_nodes()) {
    return Status::InvalidArgument("query node out of range");
  }
  const NodeId n = graph_.num_nodes();
  const double sqrt_c = std::sqrt(options_.decay);
  std::vector<double> scores(n, 0.0);

  // Phase 1: reverse expansion from u — truncated/pruned hitting
  // probabilities ĥ^(ℓ)(u, ·) for ℓ = 1..T.
  constexpr size_t kExpansionBudget = 100;  // H
  std::vector<std::unordered_map<NodeId, double>> reverse(options_.depth + 1);
  reverse[0].emplace(u, 1.0);
  for (uint32_t level = 0; level < options_.depth; ++level) {
    // Expansion budget: keep only the H most probable frontier nodes.
    std::vector<std::pair<NodeId, double>> frontier(reverse[level].begin(),
                                                    reverse[level].end());
    if (frontier.size() > kExpansionBudget) {
      std::partial_sort(
          frontier.begin(), frontier.begin() + kExpansionBudget,
          frontier.end(),
          [](const auto& a, const auto& b) { return a.second > b.second; });
      frontier.resize(kExpansionBudget);
    }
    for (const auto& [v, p] : frontier) {
      if (p < options_.trim_threshold) continue;
      const uint32_t deg = graph_.InDegree(v);
      if (deg == 0) continue;
      // High-degree pruning: expanding a hub yields tiny per-neighbor
      // shares at large cost; TopSim skips them.
      if (deg > options_.degree_threshold) continue;
      const double share = sqrt_c * p / deg;
      for (NodeId vp : graph_.InNeighbors(v)) {
        reverse[level + 1][vp] += share;
      }
    }
  }

  // Phase 2: for each meeting level ℓ, push the meeting mass forward ℓ
  // steps along out-edges; arriving mass at v contributes
  // ĥ^(ℓ)(u,w)·ĥ^(ℓ)(v,w) summed over w (no first-meeting exclusion).
  std::unordered_map<NodeId, double> forward;
  std::unordered_map<NodeId, double> forward_next;
  for (uint32_t level = 1; level <= options_.depth; ++level) {
    forward.clear();
    // Seed: weight ĥ^(ℓ)(u,w) at each meeting node w; the forward pass
    // multiplies by ĥ^(ℓ)(v,w) edge product cumulatively.
    for (const auto& [w, p] : reverse[level]) {
      if (p >= options_.trim_threshold) forward.emplace(w, p);
    }
    for (uint32_t hop = 0; hop < level; ++hop) {
      forward_next.clear();
      for (const auto& [x, p] : forward) {
        if (p < options_.trim_threshold * options_.trim_threshold) continue;
        for (NodeId v : graph_.OutNeighbors(x)) {
          forward_next[v] += sqrt_c * p / graph_.InDegree(v);
        }
      }
      std::swap(forward, forward_next);
    }
    for (const auto& [v, p] : forward) {
      if (v != u) scores[v] += p;
    }
  }
  scores[u] = 1.0;
  return scores;
}

}  // namespace simpush
