#include "simpush/join.h"

#include <algorithm>
#include <functional>

#include "common/annotations.h"
#include "simpush/parallel.h"

namespace simpush {

namespace {

bool PairLess(const SimilarPair& a, const SimilarPair& b) {
  if (a.score != b.score) return a.score > b.score;
  if (a.u != b.u) return a.u < b.u;
  return a.v < b.v;
}

// Shared scan: runs one query per node, hands qualifying pairs to
// `emit` under a mutex; `emit` returning false aborts the scan.
//
// Sources fan out through ParallelQueryBatch: every worker shares the
// one immutable EngineCore and leases one pooled workspace per chunk;
// per-source randomness is pinned to (options.query.seed, source) inside
// the runner, so results do not depend on the chunking, thread count,
// or workspace assignment.
Status ScanSources(const Graph& graph, double floor, const JoinOptions& options,
                   const std::function<bool(NodeId, NodeId, double)>& emit) {
  // A node with no in-neighbors has s(u, v) = 0 for all v != u: the
  // √c-walk from u can never move, so no meeting is possible.
  std::vector<NodeId> live;
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    if (graph.InDegree(u) > 0) live.push_back(u);
  }
  const EngineCore core(graph, options.query);
  ThreadPool thread_pool(options.num_threads);
  WorkspacePool workspaces(thread_pool.num_threads());
  Mutex emit_mu;
  bool aborted = false;  // Guarded by emit_mu (locals cannot be annotated).
  const ParallelBatchStats stats = ParallelQueryBatch(
      core, thread_pool, workspaces, live,
      [&](size_t i, const SimPushResult& result) {
        const NodeId u = live[i];
        MutexLock lock(&emit_mu);
        for (NodeId v = 0; v < graph.num_nodes(); ++v) {
          if (v == u || result.scores[v] < floor) continue;
          if (!emit(u, v, result.scores[v])) {
            aborted = true;
            return false;
          }
        }
        return true;
      });
  if (stats.queries_failed > 0) {
    return Status::Internal("a join query failed");
  }
  if (aborted) return Status::OutOfRange("join exceeded max_pairs");
  return Status::OK();
}

}  // namespace

Status JoinOptions::Validate() const {
  SIMPUSH_RETURN_NOT_OK(query.Validate());
  if (max_pairs == 0) {
    return Status::InvalidArgument("max_pairs must be positive");
  }
  return Status::OK();
}

StatusOr<std::vector<SimilarPair>> SimilarityJoin(
    const Graph& graph, double threshold, const JoinOptions& options) {
  SIMPUSH_RETURN_NOT_OK(options.Validate());
  if (threshold <= 0.0 || threshold > 1.0) {
    return Status::InvalidArgument("threshold must be in (0, 1]");
  }
  const double floor = threshold - options.query.epsilon;
  std::vector<SimilarPair> pairs;
  Status status = ScanSources(
      graph, floor, options,
      [&pairs, &options](NodeId u, NodeId v, double score) {
        if (u > v) return true;  // the (v, u) scan emits this pair
        if (pairs.size() >= options.max_pairs) return false;
        pairs.push_back({u, v, score});
        return true;
      });
  SIMPUSH_RETURN_NOT_OK(status);
  std::sort(pairs.begin(), pairs.end(), PairLess);
  return pairs;
}

StatusOr<std::vector<SimilarPair>> TopPairs(const Graph& graph, size_t n,
                                            const JoinOptions& options) {
  SIMPUSH_RETURN_NOT_OK(options.Validate());
  if (n == 0) return Status::InvalidArgument("n must be positive");

  // Keep a min-heap of the best n pairs; floor rises as it fills, which
  // prunes the per-query emission loop via the `floor` parameter only
  // loosely (scores arrive unsorted), so the heap does the real work.
  std::vector<SimilarPair> heap;
  heap.reserve(n + 1);
  auto heap_greater = [](const SimilarPair& a, const SimilarPair& b) {
    return PairLess(a, b);  // min-heap on score via greater-comparator
  };
  Status status = ScanSources(
      graph, /*floor=*/1e-12, options,
      [&](NodeId u, NodeId v, double score) {
        if (u > v) return true;
        if (heap.size() < n) {
          heap.push_back({u, v, score});
          std::push_heap(heap.begin(), heap.end(), heap_greater);
        } else if (score > heap.front().score) {
          std::pop_heap(heap.begin(), heap.end(), heap_greater);
          heap.back() = {u, v, score};
          std::push_heap(heap.begin(), heap.end(), heap_greater);
        }
        return true;
      });
  SIMPUSH_RETURN_NOT_OK(status);
  std::sort(heap.begin(), heap.end(), PairLess);
  return heap;
}

}  // namespace simpush
