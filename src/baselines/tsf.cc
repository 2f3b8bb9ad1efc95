#include "baselines/tsf.h"

#include <cmath>

#include "common/rng.h"
#include "common/timer.h"
#include "walk/walker.h"

namespace simpush {

Status Tsf::Prepare() {
  if (prepared_) return Status::OK();
  Timer timer;
  const NodeId n = graph_.num_nodes();
  Rng rng(options_.seed);

  children_offsets_.assign(options_.num_one_way_graphs, {});
  children_nodes_.assign(options_.num_one_way_graphs, {});
  std::vector<NodeId> parent(n);
  for (uint32_t g = 0; g < options_.num_one_way_graphs; ++g) {
    // Sample one parent (in-neighbor) per node; kInvalidNode if none.
    for (NodeId v = 0; v < n; ++v) {
      const uint32_t deg = graph_.InDegree(v);
      parent[v] = deg == 0
                      ? kInvalidNode
                      : graph_.InNeighborAt(
                            v, static_cast<uint32_t>(rng.NextBounded(deg)));
    }
    // Invert into a child CSR.
    auto& offsets = children_offsets_[g];
    auto& nodes = children_nodes_[g];
    offsets.assign(size_t(n) + 1, 0);
    for (NodeId v = 0; v < n; ++v) {
      if (parent[v] != kInvalidNode) ++offsets[parent[v] + 1];
    }
    for (NodeId p = 0; p < n; ++p) offsets[p + 1] += offsets[p];
    nodes.resize(offsets[n]);
    std::vector<uint32_t> cursor(offsets.begin(), offsets.end() - 1);
    for (NodeId v = 0; v < n; ++v) {
      if (parent[v] != kInvalidNode) nodes[cursor[parent[v]]++] = v;
    }
  }
  prepare_seconds_ = timer.ElapsedSeconds();
  prepared_ = true;
  return Status::OK();
}

size_t Tsf::IndexBytes() const {
  size_t bytes = 0;
  for (const auto& offsets : children_offsets_) {
    bytes += offsets.capacity() * sizeof(uint32_t);
  }
  for (const auto& nodes : children_nodes_) {
    bytes += nodes.capacity() * sizeof(NodeId);
  }
  return bytes;
}

StatusOr<std::vector<double>> Tsf::Query(NodeId u) {
  if (!prepared_) {
    SIMPUSH_RETURN_NOT_OK(Prepare());
  }
  if (u >= graph_.num_nodes()) {
    return Status::InvalidArgument("query node out of range");
  }
  const NodeId n = graph_.num_nodes();
  std::vector<double> scores(n, 0.0);
  Rng rng(options_.seed ^ (0x9E3779B97F4A7C15ULL + u));
  const double c = options_.decay;
  const double norm = 1.0 / (static_cast<double>(options_.num_one_way_graphs) *
                             options_.reuse_per_graph);

  // Scratch frontier for child-tree descent.
  std::vector<NodeId> frontier;
  std::vector<NodeId> frontier_next;

  for (uint32_t g = 0; g < options_.num_one_way_graphs; ++g) {
    const auto& offsets = children_offsets_[g];
    const auto& children = children_nodes_[g];
    for (uint32_t q = 0; q < options_.reuse_per_graph; ++q) {
      // Query walk over the original graph (uniform in-neighbor steps;
      // decay applied analytically as c^l below).
      NodeId pos = u;
      double weight = 1.0;
      for (uint32_t step = 1; step <= options_.max_depth; ++step) {
        const uint32_t deg = graph_.InDegree(pos);
        if (deg == 0) break;
        pos = graph_.InNeighborAt(pos,
                                  static_cast<uint32_t>(rng.NextBounded(deg)));
        weight *= c;
        // All nodes whose deterministic chain is at `pos` after `step`
        // steps: descend the child tree `step` levels from pos.
        frontier.clear();
        frontier.push_back(pos);
        for (uint32_t d = 0; d < step && !frontier.empty(); ++d) {
          frontier_next.clear();
          for (NodeId x : frontier) {
            for (uint32_t k = offsets[x]; k < offsets[x + 1]; ++k) {
              frontier_next.push_back(children[k]);
            }
          }
          std::swap(frontier, frontier_next);
        }
        for (NodeId v : frontier) {
          if (v != u) scores[v] += weight * norm;  // multi-meet allowed
        }
      }
    }
  }
  scores[u] = 1.0;
  return scores;
}

}  // namespace simpush
