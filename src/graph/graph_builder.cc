#include "graph/graph_builder.h"

#include <algorithm>
#include <string>

namespace simpush {

StatusOr<Graph> GraphBuilder::Build(bool dedupe) && {
  // Counting sort by source. The counting pass also range-checks every
  // edge.
  std::vector<EdgeId> offsets(static_cast<size_t>(num_nodes_) + 1, 0);
  for (const auto& [src, dst] : edges_) {
    if (src >= num_nodes_ || dst >= num_nodes_) {
      return Status::InvalidArgument(
          "edge endpoint out of range: " + std::to_string(src) + "->" +
          std::to_string(dst) + " with n=" + std::to_string(num_nodes_));
    }
    ++offsets[src + 1];
  }
  for (NodeId v = 0; v < num_nodes_; ++v) offsets[v + 1] += offsets[v];
  std::vector<NodeId> targets(offsets[num_nodes_]);
  {
    std::vector<EdgeId> cursor(offsets.begin(), offsets.end() - 1);
    for (const auto& [src, dst] : edges_) targets[cursor[src]++] = dst;
  }
  // Free the edge list before FromSortedCsr allocates the in-CSR.
  std::vector<std::pair<NodeId, NodeId>>().swap(edges_);

  // Sort each row in place; deduping shifts every row left over the
  // duplicates dropped before it.
  EdgeId write = 0;
  for (NodeId v = 0; v < num_nodes_; ++v) {
    const auto row = targets.begin() + static_cast<ptrdiff_t>(offsets[v]);
    auto row_end = targets.begin() + static_cast<ptrdiff_t>(offsets[v + 1]);
    std::sort(row, row_end);
    if (dedupe) row_end = std::unique(row, row_end);
    offsets[v] = write;
    const auto out = targets.begin() + static_cast<ptrdiff_t>(write);
    if (out != row) std::copy(row, row_end, out);
    write += static_cast<EdgeId>(row_end - row);
  }
  offsets[num_nodes_] = write;
  // Graph::MemoryBytes counts capacity, so drop what dedupe freed.
  if (write < targets.size()) {
    targets.resize(write);
    targets.shrink_to_fit();
  }
  return Graph::FromSortedCsr(num_nodes_, std::move(offsets),
                              std::move(targets), symmetric_);
}

}  // namespace simpush
