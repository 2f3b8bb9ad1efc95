// Public entry point: the SimPush engine (Algorithm 1).
//
// Example:
//   simpush::SimPushOptions options;
//   options.epsilon = 0.02;
//   simpush::SimPushEngine engine(graph, options);
//   auto result = engine.Query(u);
//   if (result.ok()) { use result->scores[v] ... }
//
// SimPushEngine is the single-threaded embedded API: one EngineCore
// (engine_core.h), one QueryWorkspace (workspace.h) and one QueryRunner
// (query_runner.h) bundled for a caller that issues queries one at a
// time. Repeated queries perform zero steady-state heap allocations when
// the caller also reuses the result via QueryInto; QueryTopK (topk.h)
// runs on runner(). Concurrent callers share one EngineCore and a
// WorkspacePool instead, and fan out through ParallelQueryBatch
// (parallel.h) — see docs/architecture.md. Results depend only on
// (options.seed, node) — not on engine reuse, workspace identity,
// thread placement, or query order.

#ifndef SIMPUSH_SIMPUSH_SIMPUSH_H_
#define SIMPUSH_SIMPUSH_SIMPUSH_H_

#include "common/status.h"
#include "graph/graph.h"
#include "simpush/engine_core.h"
#include "simpush/options.h"
#include "simpush/query_runner.h"
#include "simpush/workspace.h"

namespace simpush {

/// Index-free single-source SimRank engine for single-threaded callers.
/// No precomputation touches the graph, so graph updates simply mean
/// constructing a new engine over the new Graph (O(1) cost beyond the
/// CSR build). Not thread-safe; see ParallelQueryBatch for the
/// concurrent shape.
class SimPushEngine {
 public:
  /// The graph must outlive the engine.
  SimPushEngine(const Graph& graph, const SimPushOptions& options)
      : core_(graph, options), runner_(core_, &workspace_) {}

  /// Answers an approximate single-source SimRank query (Definition 1):
  /// |s̃(u,v) - s(u,v)| <= ε for all v w.p. >= 1-δ.
  StatusOr<SimPushResult> Query(NodeId u) { return runner_.Query(u); }

  /// Like Query, but writes into a caller-owned result whose buffers are
  /// reused — the steady-state hot path for a query loop. After warm-up
  /// (first query on this engine + result pair), performs zero heap
  /// allocations. Produces bit-identical scores to Query.
  Status QueryInto(NodeId u, SimPushResult* result) {
    return runner_.QueryInto(u, result);
  }

  const SimPushOptions& options() const { return core_.options(); }
  const DerivedParams& derived() const { return core_.derived(); }

  /// The immutable core, shareable with concurrent runners.
  const EngineCore& core() const { return core_; }
  /// The engine's runner (for APIs that operate on runners, e.g.
  /// QueryTopK).
  QueryRunner& runner() { return runner_; }

 private:
  EngineCore core_;
  QueryWorkspace workspace_;
  QueryRunner runner_;
};

}  // namespace simpush

#endif  // SIMPUSH_SIMPUSH_SIMPUSH_H_
