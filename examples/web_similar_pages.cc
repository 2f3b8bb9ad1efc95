// Search-engine scenario (paper §1): given a web page, retrieve similar
// pages in realtime on a web-scale graph. Uses the ClueWeb-style
// power-law stand-in and answers a stream of queries, reporting latency
// percentiles — the realtime property SimPush is designed for.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "eval/metrics.h"
#include "graph/generators.h"
#include "simpush/engine_core.h"
#include "simpush/query_runner.h"
#include "simpush/workspace_pool.h"

int main() {
  using namespace simpush;

  std::printf("Building a web-graph stand-in (power-law, 100k pages)...\n");
  auto graph = GenerateChungLu(100000, 900000, 2.1, 20240612);
  if (!graph.ok()) {
    std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
    return 1;
  }
  std::printf("  n=%u pages, m=%llu links\n", graph->num_nodes(),
              static_cast<unsigned long long>(graph->num_edges()));

  SimPushOptions options;
  options.epsilon = 0.02;
  options.walk_budget_cap = 100000;  // Level-detection walk cap.
  // The serving shape: one immutable EngineCore shared by every request
  // thread, and a bounded pool of per-query workspaces. This stream is
  // single-threaded, so one pooled workspace serves every request; a
  // real front end would size the pool at its worker count and let each
  // request lease a workspace through a QueryRunner exactly like this.
  EngineCore core(*graph, options);
  WorkspacePool workspaces(1);

  // A stream of 20 "user" queries.
  Rng rng(7);
  std::vector<double> latencies_ms;
  for (int i = 0; i < 20; ++i) {
    const NodeId page = static_cast<NodeId>(rng.NextBounded(graph->num_nodes()));
    QueryRunner runner(core, workspaces);  // Leases a (warm) workspace.
    auto result = runner.Query(page);
    if (!result.ok()) continue;
    latencies_ms.push_back(result->stats.total_seconds * 1e3);
    if (i < 3) {
      auto top = TopK(result->scores, 5, page);
      std::printf("  similar to page %-7u ->", page);
      for (NodeId v : top) std::printf(" %u(%.4f)", v, result->scores[v]);
      std::printf("\n");
    }
  }
  if (latencies_ms.empty()) return 1;
  std::sort(latencies_ms.begin(), latencies_ms.end());
  const auto pct = [&latencies_ms](double p) {
    return latencies_ms[size_t(p * (latencies_ms.size() - 1))];
  };
  std::printf(
      "\nrealtime latency over %zu queries: p50=%.1fms p90=%.1fms "
      "max=%.1fms — no index was built at any point.\n",
      latencies_ms.size(), pct(0.5), pct(0.9), latencies_ms.back());
  return 0;
}
