#include "simpush/workspace.h"

namespace simpush {

void QueryWorkspace::Prepare(NodeId num_nodes) {
  dense_a.Resize(num_nodes);
  dense_b.Resize(num_nodes);
  dense_a.BeginEpoch();
  dense_b.BeginEpoch();
  frontier_a.clear();
  frontier_b.clear();
  holder_span.Resize(num_nodes);
}

}  // namespace simpush
