// Shared helpers for the test suite.

#ifndef SIMPUSH_TESTS_TEST_UTIL_H_
#define SIMPUSH_TESTS_TEST_UTIL_H_

#include <cmath>
#include <vector>

#include "exact/power_method.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/graph_builder.h"
#include "gtest/gtest.h"
#include "simpush/parallel.h"

namespace simpush {
namespace testing_util {

/// Builds a directed graph from an explicit edge list; aborts the test
/// on failure.
inline Graph MakeGraph(NodeId n,
                       const std::vector<std::pair<NodeId, NodeId>>& edges) {
  GraphBuilder builder(n);
  for (const auto& [a, b] : edges) builder.AddEdge(a, b);
  auto result = std::move(builder).Build();
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

/// The running-example-style small graph used across algorithm tests:
/// a 10-node directed graph with hubs, chains and a cycle, chosen so
/// that every algorithm stage (multi-level attention sets, repeated
/// meeting nodes, dangling nodes) is exercised.
inline Graph MakeFixtureGraph() {
  return MakeGraph(10, {
                           {1, 0}, {2, 0}, {3, 0},           // 0's in: 1,2,3
                           {4, 1}, {5, 1},                   // 1's in: 4,5
                           {5, 2}, {6, 2},                   // 2's in: 5,6
                           {6, 3},                           // 3's in: 6
                           {7, 4}, {8, 4},                   // 4's in: 7,8
                           {8, 5}, {9, 5},                   // 5's in: 8,9
                           {9, 6},                           // 6's in: 9
                           {0, 7},                           // cycle back
                           {2, 9}, {1, 8},
                       });
}

/// Exact SimRank via power method; aborts the test on failure.
inline SimRankMatrix ExactSimRank(const Graph& graph, double c = 0.6) {
  PowerMethodOptions options;
  options.decay = c;
  options.tolerance = 1e-12;
  options.max_iterations = 200;
  auto result = ComputeExactSimRank(graph, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

/// Max absolute error of an estimated single-source vector vs exact row.
inline double MaxError(const std::vector<double>& estimate,
                       const SimRankMatrix& exact, NodeId u) {
  double max_err = 0.0;
  for (NodeId v = 0; v < exact.size(); ++v) {
    max_err = std::max(max_err, std::fabs(estimate[v] - exact(u, v)));
  }
  return max_err;
}

/// Random small directed graph for property sweeps (deterministic).
inline Graph RandomGraph(NodeId n, EdgeId m, uint64_t seed) {
  auto result = GenerateErdosRenyi(n, m, seed);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

/// The substrate ParallelQueryBatch fans out over: one engine core, one
/// thread pool and one workspace pool (capacity 0 = one per thread).
struct FanOut {
  FanOut(const Graph& graph, const SimPushOptions& options, size_t threads,
         size_t pool_capacity = 0)
      : core(graph, options),
        thread_pool(threads),
        workspaces(pool_capacity != 0 ? pool_capacity
                                      : thread_pool.num_threads()) {}

  ParallelBatchStats Run(const std::vector<NodeId>& queries,
                         const QueryResultFn& on_result) {
    return ParallelQueryBatch(core, thread_pool, workspaces, queries,
                              on_result);
  }
  StatusOr<std::vector<BatchTopKResult>> TopK(
      const std::vector<NodeId>& queries, size_t k,
      ParallelBatchStats* stats = nullptr) {
    return ParallelQueryBatchTopK(core, thread_pool, workspaces, queries, k,
                                  stats);
  }

  EngineCore core;
  ThreadPool thread_pool;
  WorkspacePool workspaces;
};

}  // namespace testing_util
}  // namespace simpush

#endif  // SIMPUSH_TESTS_TEST_UTIL_H_
