// Top-k single-source SimRank on top of the SimPush engine: returns the
// k nodes most similar to u with their estimates. This is the query
// shape most applications (search, recommendation) actually consume,
// and one of the extensions §7 of the paper points to.

#ifndef SIMPUSH_SIMPUSH_TOPK_H_
#define SIMPUSH_SIMPUSH_TOPK_H_

#include <cstddef>
#include <span>
#include <vector>

#include "common/status.h"
#include "graph/graph.h"
#include "simpush/query_runner.h"

namespace simpush {

/// One ranked result.
struct TopKEntry {
  NodeId node = kInvalidNode;
  double score = 0.0;
};

/// Result of a top-k query.
struct TopKResult {
  std::vector<TopKEntry> entries;  ///< Descending by score; size <= k.
  SimPushQueryStats stats;
};

/// The top-k selector every top-k path shares (QueryTopK, the parallel
/// top-k batch, the service's top-k responses, the result cache, the
/// CLI): writes into `*top` the at most k nodes other than `exclude`
/// with a positive score, descending by score, ties to the smaller id.
/// Zero-score (and NaN) nodes are never reported. A bounded heap of k
/// entries: O(n log k) time, O(k) space. `*top` keeps its capacity, so
/// the selection allocates nothing once `top` has held min(k, n)
/// entries.
void SelectTopK(const std::vector<double>& scores, size_t k, NodeId exclude,
                std::vector<TopKEntry>* top);

/// The same selection over a sparse vector: node ids[i] scores
/// scores[i] (the spans have equal lengths, the ids are distinct), and
/// every node not in `ids` scores zero. Allocates nothing once `top`
/// has held min(k, ids.size()) entries. Ranks bit-identically to the
/// dense form over the scattered vector.
void SelectTopK(std::span<const NodeId> ids, std::span<const double> scores,
                size_t k, NodeId exclude, std::vector<TopKEntry>* top);

/// Answers a top-k single-source query (the query node itself, whose
/// s = 1 trivially, is excluded). An entry's score carries the same
/// ±ε guarantee as QueryRunner::Query; ranking inversions are therefore
/// possible only between nodes within 2ε of each other.
StatusOr<TopKResult> QueryTopK(QueryRunner* runner, NodeId u, size_t k);

}  // namespace simpush

#endif  // SIMPUSH_SIMPUSH_TOPK_H_
