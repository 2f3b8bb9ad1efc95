#include "reference/graphs.h"

#include <cstdint>
#include <utility>

#include "graph/graph_builder.h"

namespace simpush {

StatusOr<Graph> GenerateCycle(NodeId num_nodes) {
  if (num_nodes < 2) return Status::InvalidArgument("cycle requires n>=2");
  GraphBuilder builder(num_nodes);
  for (NodeId v = 0; v < num_nodes; ++v) {
    builder.AddEdge(v, (v + 1) % num_nodes);
  }
  return std::move(builder).Build();
}

StatusOr<Graph> GenerateStar(NodeId num_nodes, bool bidirectional) {
  if (num_nodes < 2) return Status::InvalidArgument("star requires n>=2");
  GraphBuilder builder(num_nodes);
  for (NodeId v = 1; v < num_nodes; ++v) {
    builder.AddEdge(v, 0);
    if (bidirectional) builder.AddEdge(0, v);
  }
  return std::move(builder).Build();
}

StatusOr<Graph> GenerateComplete(NodeId num_nodes) {
  if (num_nodes < 2) return Status::InvalidArgument("complete requires n>=2");
  GraphBuilder builder(num_nodes);
  for (NodeId a = 0; a < num_nodes; ++a) {
    for (NodeId b = 0; b < num_nodes; ++b) {
      if (a != b) builder.AddEdge(a, b);
    }
  }
  return std::move(builder).Build();
}

StatusOr<Graph> GenerateGrid(NodeId rows, NodeId cols) {
  if (rows == 0 || cols == 0) {
    return Status::InvalidArgument("grid requires rows, cols >= 1");
  }
  const uint64_t n64 = static_cast<uint64_t>(rows) * cols;
  if (n64 > static_cast<uint64_t>(kInvalidNode)) {
    return Status::InvalidArgument("grid too large");
  }
  GraphBuilder builder(static_cast<NodeId>(n64));
  auto id = [cols](NodeId r, NodeId c) { return r * cols + c; };
  for (NodeId r = 0; r < rows; ++r) {
    for (NodeId c = 0; c < cols; ++c) {
      if (c + 1 < cols) builder.AddEdge(id(r, c), id(r, c + 1));
      if (r + 1 < rows) builder.AddEdge(id(r, c), id(r + 1, c));
    }
  }
  return std::move(builder).Build();
}

}  // namespace simpush
