#include "simpush/workspace.h"

namespace simpush {

void QueryWorkspace::Prepare(NodeId num_nodes) {
  if (accum_a.size() < num_nodes) accum_a.resize(num_nodes, 0.0);
  if (accum_b.size() < num_nodes) accum_b.resize(num_nodes, 0.0);
  frontier_a.clear();
  frontier_b.clear();
  holder_span.Resize(num_nodes);
}

}  // namespace simpush
