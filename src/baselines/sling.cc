#include "baselines/sling.h"

#include <cmath>
#include <unordered_map>

#include "baselines/eta_estimator.h"
#include "common/timer.h"

namespace simpush {

double Sling::PushThreshold() const { return options_.epsilon / 4.0; }

Status Sling::Prepare() {
  if (prepared_) return Status::OK();
  Timer timer;
  const double sqrt_c = std::sqrt(options_.decay);
  const NodeId n = graph_.num_nodes();

  // Part 1: η(w) for all nodes.
  eta_ = EstimateEtaAllNodes(graph_, sqrt_c, options_.eta_samples,
                             options_.seed);

  // Part 2: reverse hitting lists. A backward push from w along
  // out-edges computes h^(ℓ)(v, w) for growing ℓ until all residues
  // fall below θ. This mirrors the forward push of Source-Push but
  // anchored at the *target* side.
  const double theta = PushThreshold();
  const uint32_t max_level = static_cast<uint32_t>(
      std::ceil(std::log(1.0 / theta) / std::log(1.0 / sqrt_c)));
  reverse_index_.assign(n, {});
  std::unordered_map<NodeId, double> current;
  std::unordered_map<NodeId, double> next;
  for (NodeId w = 0; w < n; ++w) {
    current.clear();
    current.emplace(w, 1.0);
    for (uint32_t level = 1; level <= max_level && !current.empty();
         ++level) {
      next.clear();
      for (const auto& [x, p] : current) {
        if (p < theta) continue;
        for (NodeId v : graph_.OutNeighbors(x)) {
          next[v] += sqrt_c * p / graph_.InDegree(v);
        }
      }
      for (const auto& [v, p] : next) {
        if (p >= theta) {
          reverse_index_[w].push_back(
              {level, v, static_cast<float>(p)});
        }
      }
      std::swap(current, next);
    }
  }
  prepare_seconds_ = timer.ElapsedSeconds();
  prepared_ = true;
  return Status::OK();
}

size_t Sling::IndexBytes() const {
  size_t bytes = eta_.capacity() * sizeof(double);
  bytes += reverse_index_.capacity() * sizeof(std::vector<IndexEntry>);
  for (const auto& list : reverse_index_) {
    bytes += list.capacity() * sizeof(IndexEntry);
  }
  return bytes;
}

StatusOr<std::vector<double>> Sling::Query(NodeId u) {
  if (!prepared_) {
    SIMPUSH_RETURN_NOT_OK(Prepare());
  }
  if (u >= graph_.num_nodes()) {
    return Status::InvalidArgument("query node out of range");
  }
  const double sqrt_c = std::sqrt(options_.decay);
  const double theta = PushThreshold();
  const uint32_t max_level = static_cast<uint32_t>(
      std::ceil(std::log(1.0 / theta) / std::log(1.0 / sqrt_c)));

  std::vector<double> scores(graph_.num_nodes(), 0.0);
  // Forward push from u along in-edges: h^(ℓ)(u, w) >= θ.
  std::unordered_map<NodeId, double> current;
  std::unordered_map<NodeId, double> next;
  current.emplace(u, 1.0);
  for (uint32_t level = 1; level <= max_level && !current.empty(); ++level) {
    next.clear();
    for (const auto& [v, p] : current) {
      if (p < theta) continue;
      const uint32_t deg = graph_.InDegree(v);
      if (deg == 0) continue;
      const double share = sqrt_c * p / deg;
      for (NodeId vp : graph_.InNeighbors(v)) {
        next[vp] += share;
      }
    }
    // Join each significant (w, h^(ℓ)(u,w)) with w's index list at the
    // same level.
    for (const auto& [w, h_uw] : next) {
      if (h_uw < theta) continue;
      const double weighted = h_uw * eta_[w];
      for (const IndexEntry& entry : reverse_index_[w]) {
        if (entry.level != level) continue;
        scores[entry.v] += weighted * entry.h;
      }
    }
    std::swap(current, next);
  }
  scores[u] = 1.0;
  return scores;
}

}  // namespace simpush
