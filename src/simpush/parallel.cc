#include "simpush/parallel.h"

#include <algorithm>
#include <atomic>

#include "common/annotations.h"
#include "common/timer.h"

namespace simpush {

ParallelBatchStats ParallelQueryBatch(const EngineCore& core,
                                      ThreadPool& thread_pool,
                                      WorkspacePool& workspaces,
                                      const std::vector<NodeId>& queries,
                                      const QueryResultFn& on_result,
                                      const CancelToken* cancel) {
  Timer wall;
  ParallelBatchStats stats;
  stats.num_threads = thread_pool.num_threads();
  const size_t workers = std::max<size_t>(1, stats.num_threads);
  const size_t chunk = (queries.size() + workers - 1) / workers;
  std::atomic<bool> stopped{false};
  const auto should_stop = [&stopped, cancel] {
    return stopped.load(std::memory_order_relaxed) || ShouldStop(cancel);
  };

  // Completion is tracked per call, not via ThreadPool::Wait (which
  // drains the WHOLE pool): concurrent batches must only wait for their
  // own chunks. Locals cannot be annotated; `pending` and the counters
  // of `stats` are guarded by done_mu.
  Mutex done_mu;
  CondVar chunk_done;
  size_t pending = 0;

  for (size_t begin = 0; begin < queries.size(); begin += chunk) {
    const size_t end = std::min(queries.size(), begin + chunk);
    {
      MutexLock lock(&done_mu);
      ++pending;
    }
    thread_pool.Submit([&, begin, end] {
      // One leased workspace serves the whole chunk and returns to the
      // pool when the runner dies, so a later batch reuses it warm. A
      // chunk that starts after the batch stopped never leases at all.
      // The chunk sums its queries' stats locally and folds them into
      // the batch's once, under the lock.
      ParallelBatchStats chunk_stats;
      if (!should_stop()) {
        QueryRunner runner(core, workspaces, cancel);
        SimPushResult result;  // Buffers reused across the whole chunk.
        for (size_t i = begin; i < end && !should_stop(); ++i) {
          if (!runner.QueryInto(queries[i], &result).ok()) {
            ++chunk_stats.queries_failed;
            continue;
          }
          ++chunk_stats.queries_ok;
          chunk_stats.cpu_query_seconds += result.stats.total_seconds;
          chunk_stats.walks_sampled += result.stats.walks_sampled;
          if (!on_result(i, result)) {
            stopped.store(true, std::memory_order_relaxed);
          }
        }
      }
      MutexLock lock(&done_mu);
      stats.queries_ok += chunk_stats.queries_ok;
      stats.queries_failed += chunk_stats.queries_failed;
      stats.cpu_query_seconds += chunk_stats.cpu_query_seconds;
      stats.walks_sampled += chunk_stats.walks_sampled;
      if (--pending == 0) chunk_done.NotifyAll();
    });
  }
  MutexLock lock(&done_mu);
  while (pending != 0) chunk_done.Wait(done_mu);

  stats.wall_seconds = wall.ElapsedSeconds();
  return stats;
}

StatusOr<std::vector<BatchTopKResult>> ParallelQueryBatchTopK(
    const EngineCore& core, ThreadPool& thread_pool,
    WorkspacePool& workspaces, const std::vector<NodeId>& queries, size_t k,
    ParallelBatchStats* stats, const CancelToken* cancel) {
  std::vector<BatchTopKResult> results(queries.size());
  const ParallelBatchStats batch = ParallelQueryBatch(
      core, thread_pool, workspaces, queries,
      [&](size_t i, const SimPushResult& result) {
        results[i].query = queries[i];
        SelectTopK(result.scores, k, queries[i], &results[i].topk);
        return true;
      },
      cancel);
  if (stats != nullptr) *stats = batch;

  // A fired token wins over the failure count: skipped chunks report a
  // deadline/cancel error, not a bogus invalid-node error.
  if (cancel != nullptr) {
    SIMPUSH_RETURN_NOT_OK(cancel->Check());
  }
  if (batch.queries_failed > 0) {
    return Status::InvalidArgument("batch contained invalid query nodes");
  }
  return results;
}

}  // namespace simpush
