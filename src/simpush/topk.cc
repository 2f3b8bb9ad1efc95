#include "simpush/topk.h"

#include <algorithm>

namespace simpush {

std::vector<TopKEntry> SelectTopK(const std::vector<double>& scores, size_t k,
                                  NodeId exclude) {
  std::vector<NodeId> order;
  for (NodeId v = 0; v < scores.size(); ++v) {
    if (v != exclude && scores[v] > 0.0) order.push_back(v);
  }
  const size_t take = std::min(k, order.size());
  std::partial_sort(order.begin(), order.begin() + take, order.end(),
                    [&scores](NodeId a, NodeId b) {
                      if (scores[a] != scores[b]) {
                        return scores[a] > scores[b];
                      }
                      return a < b;
                    });
  std::vector<TopKEntry> entries;
  entries.reserve(take);
  for (size_t i = 0; i < take; ++i) {
    entries.push_back({order[i], scores[order[i]]});
  }
  return entries;
}

StatusOr<TopKResult> QueryTopK(QueryRunner* runner, NodeId u, size_t k) {
  SIMPUSH_ASSIGN_OR_RETURN(SimPushResult full, runner->Query(u));
  TopKResult result;
  result.entries = SelectTopK(full.scores, k, u);
  result.stats = full.stats;
  return result;
}

}  // namespace simpush
