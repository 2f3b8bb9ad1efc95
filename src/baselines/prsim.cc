#include "baselines/prsim.h"

#include <algorithm>
#include <cmath>

#include "baselines/eta_estimator.h"
#include "common/timer.h"

namespace simpush {

namespace {
// Push threshold and level horizon shared by index build and query.
struct PushParams {
  double theta;
  uint32_t max_level;
};

PushParams ParamsFor(double epsilon, double sqrt_c) {
  PushParams p;
  p.theta = epsilon / 4.0;
  p.max_level = static_cast<uint32_t>(
      std::ceil(std::log(1.0 / p.theta) / std::log(1.0 / sqrt_c)));
  return p;
}
}  // namespace

std::vector<PRSim::IndexEntry> PRSim::BackwardPush(NodeId w, double theta,
                                                   uint32_t max_level) const {
  const double sqrt_c = std::sqrt(options_.decay);
  std::vector<IndexEntry> out;
  std::unordered_map<NodeId, double> current;
  std::unordered_map<NodeId, double> next;
  current.emplace(w, 1.0);
  for (uint32_t level = 1; level <= max_level && !current.empty(); ++level) {
    next.clear();
    for (const auto& [x, p] : current) {
      if (p < theta) continue;
      for (NodeId v : graph_.OutNeighbors(x)) {
        next[v] += sqrt_c * p / graph_.InDegree(v);
      }
    }
    for (const auto& [v, p] : next) {
      if (p >= theta) out.push_back({level, v, static_cast<float>(p)});
    }
    std::swap(current, next);
  }
  return out;
}

Status PRSim::Prepare() {
  if (prepared_) return Status::OK();
  Timer timer;
  const double sqrt_c = std::sqrt(options_.decay);
  const NodeId n = graph_.num_nodes();

  eta_ = EstimateEtaAllNodes(graph_, sqrt_c, options_.eta_samples,
                             options_.seed);

  // Hub selection: top-j0 nodes by in-degree (the meeting-probability
  // mass concentrates on high in-degree nodes in power-law graphs).
  const uint32_t j0 = std::min<uint32_t>(
      static_cast<uint32_t>(std::ceil(std::sqrt(double(n)))), n);
  std::vector<NodeId> order(n);
  for (NodeId v = 0; v < n; ++v) order[v] = v;
  std::partial_sort(order.begin(), order.begin() + j0, order.end(),
                    [this](NodeId a, NodeId b) {
                      return graph_.InDegree(a) > graph_.InDegree(b);
                    });

  const PushParams params = ParamsFor(options_.epsilon, sqrt_c);
  hub_of_node_.clear();
  hub_index_.assign(j0, {});
  for (uint32_t slot = 0; slot < j0; ++slot) {
    const NodeId w = order[slot];
    hub_of_node_.emplace(w, slot);
    hub_index_[slot] = BackwardPush(w, params.theta, params.max_level);
  }
  prepare_seconds_ = timer.ElapsedSeconds();
  prepared_ = true;
  return Status::OK();
}

size_t PRSim::IndexBytes() const {
  size_t bytes = eta_.capacity() * sizeof(double);
  bytes += hub_of_node_.size() * (sizeof(NodeId) + sizeof(uint32_t) + 16);
  bytes += hub_index_.capacity() * sizeof(std::vector<IndexEntry>);
  for (const auto& list : hub_index_) {
    bytes += list.capacity() * sizeof(IndexEntry);
  }
  return bytes;
}

StatusOr<std::vector<double>> PRSim::Query(NodeId u) {
  if (!prepared_) {
    SIMPUSH_RETURN_NOT_OK(Prepare());
  }
  if (u >= graph_.num_nodes()) {
    return Status::InvalidArgument("query node out of range");
  }
  const double sqrt_c = std::sqrt(options_.decay);
  const PushParams params = ParamsFor(options_.epsilon, sqrt_c);

  std::vector<double> scores(graph_.num_nodes(), 0.0);
  std::unordered_map<NodeId, double> current;
  std::unordered_map<NodeId, double> next;
  current.emplace(u, 1.0);
  for (uint32_t level = 1; level <= params.max_level && !current.empty();
       ++level) {
    next.clear();
    for (const auto& [v, p] : current) {
      if (p < params.theta) continue;
      const uint32_t deg = graph_.InDegree(v);
      if (deg == 0) continue;
      const double share = sqrt_c * p / deg;
      for (NodeId vp : graph_.InNeighbors(v)) {
        next[vp] += share;
      }
    }
    for (const auto& [w, h_uw] : next) {
      if (h_uw < params.theta) continue;
      const double weighted = h_uw * eta_[w];
      auto hub_it = hub_of_node_.find(w);
      if (hub_it != hub_of_node_.end()) {
        // Fast path: index lookup.
        for (const IndexEntry& entry : hub_index_[hub_it->second]) {
          if (entry.level != level) continue;
          scores[entry.v] += weighted * entry.h;
        }
      } else {
        // Slow path: online backward push from the non-hub meeting
        // node (the cost PRSim's power-law assumption tries to bound).
        for (const IndexEntry& entry :
             BackwardPush(w, params.theta, level)) {
          if (entry.level != level) continue;
          scores[entry.v] += weighted * entry.h;
        }
      }
    }
    std::swap(current, next);
  }
  scores[u] = 1.0;
  return scores;
}

}  // namespace simpush
