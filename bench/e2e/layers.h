// Per-layer metrics of a traced run (--trace 1).
//
// Layers are named after the modules under src/. Each number is timed
// from outside, around calls into the layer's public functions: spans
// recorded by the load generator and the route wrappers, TenantStats
// and HttpServer counter deltas over the window, post-window replays
// of the window's miss nodes through QueryRunner, and probes of
// GraphRegistry::Lease, ResultCache::Get/Insert, the batch fan-out and
// (on workloads without a writer) the publish path.

#ifndef SIMPUSH_BENCH_E2E_LAYERS_H_
#define SIMPUSH_BENCH_E2E_LAYERS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "metrics.h"
#include "serve/registry.h"
#include "stack.h"
#include "traffic.h"

namespace simpush {
namespace bench_e2e {

/// What the measured window left behind for the layer metrics.
struct WindowRecord {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 0;
  serve::TenantStats stats_start;
  serve::TenantStats stats_end;
  uint64_t rejected_503 = 0;        ///< HttpServer counter delta.
  int64_t live_generations_max = 0;
  uint64_t completed = 0;           ///< Reads answered in the window.
  int64_t window_start_ns = 0;
  std::vector<NodeId> miss_nodes;   ///< Distinct, at most kStageReplayNodes.
};

/// Computes every per-layer metric but the setup ones (graph.load_ms,
/// registry.add_ms), which need the later boots; writes the span tree to
/// `trace_path`, and appends the trace's own checks (span add-up error,
/// orphan spans) to `diagnostics`. Runs after the correctness gates; its
/// probe publishes retire `serving` on workloads without a writer.
StatusOr<std::vector<Metric>> LayerMetrics(
    const WindowRecord& window, const LoadGenerator& load,
    std::vector<Span> handles, ServingStack* stack,
    const serve::GraphGeneration& serving, const std::string& trace_path,
    std::vector<Metric>* diagnostics);

}  // namespace bench_e2e
}  // namespace simpush

#endif  // SIMPUSH_BENCH_E2E_LAYERS_H_
