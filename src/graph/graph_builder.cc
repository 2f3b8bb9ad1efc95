#include "graph/graph_builder.h"

#include <algorithm>
#include <string>

namespace simpush {

StatusOr<Graph> GraphBuilder::Build(bool dedupe, bool drop_self_loops) && {
  for (const auto& [src, dst] : edges_) {
    if (src >= num_nodes_ || dst >= num_nodes_) {
      return Status::InvalidArgument(
          "edge endpoint out of range: " + std::to_string(src) + "->" +
          std::to_string(dst) + " with n=" + std::to_string(num_nodes_));
    }
  }
  if (drop_self_loops) {
    std::erase_if(edges_, [](const auto& e) { return e.first == e.second; });
  }
  std::sort(edges_.begin(), edges_.end());
  if (dedupe) {
    edges_.erase(std::unique(edges_.begin(), edges_.end()), edges_.end());
  }

  // Out-CSR: edges_ is sorted by (src, dst) already.
  std::vector<EdgeId> offsets(static_cast<size_t>(num_nodes_) + 1, 0);
  std::vector<NodeId> targets;
  targets.reserve(edges_.size());
  for (const auto& [src, dst] : edges_) {
    ++offsets[src + 1];
    targets.push_back(dst);
  }
  for (NodeId v = 0; v < num_nodes_; ++v) offsets[v + 1] += offsets[v];
  // Free the edge list before FromSortedCsr allocates the in-CSR.
  std::vector<std::pair<NodeId, NodeId>>().swap(edges_);
  return Graph::FromSortedCsr(num_nodes_, std::move(offsets),
                              std::move(targets), symmetric_);
}

}  // namespace simpush
