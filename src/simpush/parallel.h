// The one fan-out of single-source SimRank queries across threads.
//
// SimPush is index-free: a score vector is a pure function of (graph,
// options, source node), so every multi-query shape — batch, top-k
// batch, similarity join, the service's /v1/batch — is one fan-out of
// that one function. ParallelQueryBatch is that fan-out; everything
// else calls it.
//
// The caller composes the substrate: ONE EngineCore (immutable, shared
// by every worker), ONE ThreadPool, ONE WorkspacePool. The multi-tenant
// GraphRegistry shares its ThreadPool and WorkspacePool across every
// tenant, while each graph generation owns its core. Peak query-scratch
// memory is bounded by the workspace pool's capacity, not by how many
// requests or workers exist.
//
// Single-query latency is untouched — the paper's realtime claim is a
// one-thread number and stays that way in the benches. This module
// targets *throughput*.

#ifndef SIMPUSH_SIMPUSH_PARALLEL_H_
#define SIMPUSH_SIMPUSH_PARALLEL_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/deadline.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "graph/graph.h"
#include "simpush/engine_core.h"
#include "simpush/query_runner.h"
#include "simpush/topk.h"
#include "simpush/workspace_pool.h"

namespace simpush {

/// Aggregate statistics from a parallel batch run, summed from the
/// successful queries' SimPushQueryStats.
struct ParallelBatchStats {
  size_t queries_ok = 0;        ///< Queries that returned scores.
  size_t queries_failed = 0;    ///< Queries that failed (e.g. bad node id).
  double wall_seconds = 0;      ///< End-to-end elapsed time.
  double cpu_query_seconds = 0; ///< Sum of per-query times across workers.
  uint64_t walks_sampled = 0;   ///< Level-detection walks across queries.
  size_t num_threads = 0;       ///< Worker threads the batch ran on.
};

/// Receives one successful query: its index into `queries` and its
/// result. Returning false stops the batch.
using QueryResultFn =
    std::function<bool(size_t index, const SimPushResult& result)>;

/// Runs every query in `queries`: splits them into contiguous chunks,
/// one per pool worker, and runs each chunk on one leased workspace,
/// reusing one SimPushResult across the chunk via QueryInto. Blocks
/// until every chunk finishes — and waits only for its own chunks, so
/// concurrent batches may share one thread pool and workspace pool.
///
/// `on_result` runs concurrently on the worker threads: it must
/// synchronize any shared state itself (writing slot `index` of a
/// pre-sized vector needs no lock). The result's buffers are reused for
/// the chunk's next query, so copy what you keep. Failed queries are
/// counted in queries_failed and skipped.
///
/// `cancel` (nullable) is polled inside every query, between queries,
/// and before a chunk leases its workspace, so a fired token stops the
/// fan-out instead of draining the pool. Once `on_result` returns false
/// no chunk starts another query.
///
/// Determinism: each query's RNG stream is derived from (options.seed,
/// query node), so scores are bit-identical for any thread count,
/// chunking, or workspace assignment.
ParallelBatchStats ParallelQueryBatch(const EngineCore& core,
                                      ThreadPool& thread_pool,
                                      WorkspacePool& workspaces,
                                      const std::vector<NodeId>& queries,
                                      const QueryResultFn& on_result,
                                      const CancelToken* cancel = nullptr);

/// Top-k of one query of a batch.
struct BatchTopKResult {
  NodeId query = kInvalidNode;
  std::vector<TopKEntry> topk;  ///< As SelectTopK returns it.
};

/// Materializing top-k batch on ParallelQueryBatch: one entry per
/// query, in query order. Any failed query fails the batch with
/// kInvalidArgument; a fired `cancel` fails it with the token's status
/// (kDeadlineExceeded / kCancelled) instead of a partial result.
StatusOr<std::vector<BatchTopKResult>> ParallelQueryBatchTopK(
    const EngineCore& core, ThreadPool& thread_pool,
    WorkspacePool& workspaces, const std::vector<NodeId>& queries, size_t k,
    ParallelBatchStats* stats = nullptr,
    const CancelToken* cancel = nullptr);

}  // namespace simpush

#endif  // SIMPUSH_SIMPUSH_PARALLEL_H_
