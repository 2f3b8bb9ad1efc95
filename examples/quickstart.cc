// Quickstart: build a small graph, answer one single-source SimRank
// query with SimPush, and print the top-10 most similar nodes.
//
//   $ ./examples/quickstart
//
// The graph here is a toy citation network; in a real deployment you
// would load an edge list with simpush::LoadEdgeList instead.

#include <cstdio>

#include "eval/metrics.h"
#include "graph/graph_builder.h"
#include "simpush/engine_core.h"
#include "simpush/query_runner.h"
#include "simpush/workspace_pool.h"

int main() {
  using namespace simpush;

  // 1. Build a graph (12 papers; an edge a -> b means "a cites b").
  GraphBuilder builder(12);
  const std::pair<NodeId, NodeId> citations[] = {
      {1, 0}, {2, 0}, {3, 0}, {4, 1}, {4, 2}, {5, 1},  {5, 3},
      {6, 2}, {6, 3}, {7, 4}, {7, 5}, {8, 5}, {8, 6},  {9, 6},
      {10, 7}, {10, 8}, {11, 8}, {11, 9}, {9, 2}, {10, 3},
  };
  for (const auto& [from, to] : citations) builder.AddEdge(from, to);
  auto graph = std::move(builder).Build();
  if (!graph.ok()) {
    std::fprintf(stderr, "graph build failed: %s\n",
                 graph.status().ToString().c_str());
    return 1;
  }

  // 2. Configure SimPush: ε is the absolute error guarantee.
  SimPushOptions options;
  options.epsilon = 0.01;
  options.delta = 1e-4;
  // Cap the worst-case level-detection walk formula for interactive
  // latency; accuracy is unaffected on this graph.
  options.walk_budget_cap = 50000;

  // 3. Query. No index, no preprocessing. The engine is split into an
  //    immutable EngineCore (shareable across threads) and pooled
  //    per-query workspaces; a QueryRunner binds one of each. For a
  //    single-threaded tool a pool of one workspace is all it takes —
  //    simpush::SimPushEngine wraps exactly this trio if you prefer
  //    one object.
  EngineCore core(*graph, options);
  WorkspacePool workspaces(1);
  QueryRunner runner(core, workspaces);
  const NodeId query = 5;
  auto result = runner.Query(query);
  if (!result.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }

  // 4. Report the top-10 nodes most similar to the query.
  std::printf("Top similar papers to paper %u (SimRank, c=%.1f):\n", query,
              options.decay);
  for (NodeId v : TopK(result->scores, 10, query)) {
    std::printf("  paper %-3u  s = %.4f\n", v, result->scores[v]);
  }
  std::printf(
      "\nquery stats: L=%u, |A_u|=%zu, %.3f ms total "
      "(source-push %.3f / gamma %.3f / reverse-push %.3f)\n",
      result->stats.max_level, result->stats.num_attention,
      result->stats.total_seconds * 1e3,
      result->stats.source_push_seconds * 1e3,
      result->stats.gamma_seconds * 1e3,
      result->stats.reverse_push_seconds * 1e3);
  return 0;
}
