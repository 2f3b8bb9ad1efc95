// Sensitivity bench (extension): the paper fixes c = 0.6 and δ = 1e-4
// throughout (§5.1, following [21,31,33]); this bench varies both and
// verifies that SimPush's accuracy guarantee and cost model respond as
// the analysis predicts:
//   * decay c     — L* = ⌊log_{1/√c}(1/ε_h)⌋ grows with c, so query
//                   time rises while the error stays within ε (the
//                   guarantee is c-independent). Exact ground truth is
//                   recomputed per c via the power method.
//   * failure δ   — only the level-detection walk count N depends on δ
//                   (logarithmically); accuracy should be flat, cost
//                   mildly increasing as δ shrinks.

#include <algorithm>
#include <cstdio>

#include "bench_common.h"
#include "graph/generators.h"
#include "exact/power_method.h"
#include "simpush/simpush.h"

namespace simpush {
namespace bench {
namespace {

// Small power-law graph so the power method provides exact per-c truth.
Graph BuildSensitivityGraph() {
  auto graph = GenerateChungLu(2000, 16000, 2.3, 20200612);
  if (!graph.ok()) {
    std::fprintf(stderr, "FATAL: %s\n", graph.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(graph).value();
}

void SweepDecay(const Graph& graph, const std::vector<NodeId>& queries) {
  std::printf("\n== decay factor sweep (epsilon = 0.02, delta = 1e-4) ==\n");
  std::printf("%-8s %8s %10s %12s %14s %14s\n", "c", "L*", "avg L",
              "attention", "query(ms)", "maxErr(<=eps)");
  for (double c : {0.4, 0.5, 0.6, 0.7, 0.8}) {
    PowerMethodOptions pm;
    pm.decay = c;
    auto exact = ComputeExactSimRank(graph, pm);
    if (!exact.ok()) std::exit(1);

    SimPushOptions options;
    options.decay = c;
    options.epsilon = 0.02;
    options.walk_budget_cap = QuickMode() ? 5000 : 30000;
    const DerivedParams params = ComputeDerivedParams(options);

    SimPushEngine engine(graph, options);
    double total_seconds = 0, total_level = 0, total_attention = 0;
    double max_error = 0;
    for (NodeId u : queries) {
      auto result = engine.Query(u);
      if (!result.ok()) std::exit(1);
      total_seconds += result->stats.total_seconds;
      total_level += result->stats.max_level;
      total_attention += result->stats.num_attention;
      for (NodeId v = 0; v < graph.num_nodes(); ++v) {
        if (v == u) continue;
        max_error = std::max(max_error, (*exact)(u, v) - result->scores[v]);
      }
    }
    std::printf("%-8.2f %8u %10.2f %12.1f %14.3f %14.6f%s\n", c,
                params.l_star, total_level / queries.size(),
                total_attention / queries.size(),
                total_seconds / queries.size() * 1e3, max_error,
                max_error <= options.epsilon ? "  OK" : "  VIOLATION");
    std::fflush(stdout);
  }
}

void SweepDelta(const Graph& graph, const std::vector<NodeId>& queries) {
  std::printf("\n== failure probability sweep (c = 0.6, eps = 0.02) ==\n");
  std::printf("%-10s %14s %14s %12s\n", "delta", "walks N", "query(ms)",
              "avg L");
  for (double delta : {1e-2, 1e-3, 1e-4, 1e-5, 1e-6}) {
    SimPushOptions options;
    options.epsilon = 0.02;
    options.delta = delta;
    options.walk_budget_cap = QuickMode() ? 5000 : 100000;
    const DerivedParams params = ComputeDerivedParams(options);
    SimPushEngine engine(graph, options);
    double total_seconds = 0, total_level = 0;
    for (NodeId u : queries) {
      auto result = engine.Query(u);
      if (!result.ok()) std::exit(1);
      total_seconds += result->stats.total_seconds;
      total_level += result->stats.max_level;
    }
    std::printf("%-10.0e %14llu %14.3f %12.2f\n", delta,
                static_cast<unsigned long long>(params.num_walks),
                total_seconds / queries.size() * 1e3,
                total_level / queries.size());
    std::fflush(stdout);
  }
}

}  // namespace
}  // namespace bench
}  // namespace simpush

int main() {
  using namespace simpush;
  using namespace simpush::bench;
  std::printf("== Parameter sensitivity (extension bench) ==\n");
  Graph graph = BuildSensitivityGraph();
  std::printf("graph: n=%u m=%llu\n", graph.num_nodes(),
              static_cast<unsigned long long>(graph.num_edges()));
  auto queries = GenerateQuerySet(graph, QuickMode() ? 3 : 8, 99);
  SweepDecay(graph, queries);
  SweepDelta(graph, queries);
  return 0;
}
