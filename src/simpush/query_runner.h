// QueryRunner: binds one immutable EngineCore to one exclusively-held
// QueryWorkspace and executes single-source queries (Algorithm 1).
//
// This is the execution half of the engine split: the core is shared
// by any number of threads, the workspace comes either from a
// WorkspacePool lease (serving shape) or from a caller-owned workspace
// (embedded / single-threaded shape), and the runner is the short-lived
// object that owns a query's control flow.
//
// Thread-safety contract: a QueryRunner is NOT thread-safe — it mutates
// its workspace. Concurrency is achieved by giving each in-flight query
// its own runner (and thus its own workspace); the shared EngineCore is
// read-only. Results are bit-exact functions of (options.seed, query
// node): which workspace, runner, or thread executes a query can never
// change its scores.

#ifndef SIMPUSH_SIMPUSH_QUERY_RUNNER_H_
#define SIMPUSH_SIMPUSH_QUERY_RUNNER_H_

#include <cstdint>
#include <vector>

#include "common/deadline.h"
#include "common/status.h"
#include "graph/graph.h"
#include "simpush/engine_core.h"
#include "simpush/workspace.h"
#include "simpush/workspace_pool.h"

namespace simpush {

/// Per-query statistics exposed for the paper's §5.2 inline claims
/// (avg L, attention-set size) and the Table 3 stage breakdown.
struct SimPushQueryStats {
  uint32_t max_level = 0;          ///< L.
  size_t num_attention = 0;        ///< |A_u|.
  /// |G_u| node occurrences (levels >= 1). Under level detection,
  /// levels L-1 and L count only their evaluated nodes.
  size_t gu_node_occurrences = 0;
  uint64_t walks_sampled = 0;      ///< Level-detection walks.
  uint64_t reverse_pushes = 0;
  uint64_t reverse_edges = 0;
  double source_push_seconds = 0;  ///< Stage 1 (Algorithm 2).
  double gamma_seconds = 0;        ///< Stage 2 (Algorithms 3-4).
  double reverse_push_seconds = 0; ///< Stage 3 (Algorithm 5).
  double total_seconds = 0;
};

/// Result of one single-source query.
struct SimPushResult {
  /// s̃(u, v) for every v; scores[u] == 1.
  std::vector<double> scores;
  SimPushQueryStats stats;
};

/// Executes queries against a shared EngineCore using one workspace.
class QueryRunner {
 public:
  /// Binds to a caller-owned workspace. The caller guarantees exclusive
  /// use of `workspace` for the runner's lifetime; core and workspace
  /// must outlive the runner.
  QueryRunner(const EngineCore& core, QueryWorkspace* workspace,
              const CancelToken* cancel = nullptr);

  /// Checks a workspace out of `pool` and returns it when the runner is
  /// destroyed. The pool wait blocks while the pool is exhausted; a
  /// `cancel` that fires during that wait leaves the runner without a
  /// workspace, and every query then fails with the token's status.
  QueryRunner(const EngineCore& core, WorkspacePool& pool,
              const CancelToken* cancel = nullptr);

  // Neither copyable nor movable: a defaulted move would leave the
  // moved-from runner with live pointers to a workspace it no longer
  // owns exclusively. Construct runners in place.
  QueryRunner(QueryRunner&&) = delete;
  QueryRunner(const QueryRunner&) = delete;
  QueryRunner& operator=(const QueryRunner&) = delete;

  /// Answers an approximate single-source SimRank query (Definition 1):
  /// |s̃(u,v) - s(u,v)| <= ε for all v w.p. >= 1-δ.
  StatusOr<SimPushResult> Query(NodeId u);

  /// Stages 1-2 of Algorithm 1 for query node u: Source-Push, then the
  /// hitting table and γ. Leaves G_u in workspace.source_graph and γ in
  /// workspace.gamma, which stay valid until the workspace's next
  /// query, and fills the stats of those two stages. Query runs this
  /// and then Reverse-Push; other query shapes (SinglePairSession) read
  /// the same source side, so it is a function of (options.seed, u)
  /// alone, like Query's scores.
  Status SourceSide(NodeId u, SimPushQueryStats* stats);

  /// Like Query, but writes into a caller-owned result whose buffers
  /// are reused — the steady-state hot path for a query loop. After
  /// warm-up (workspace + result both warm), performs zero heap
  /// allocations. Produces bit-identical scores to Query.
  Status QueryInto(NodeId u, SimPushResult* result);

  /// The shared immutable core this runner executes against.
  const EngineCore& core() const { return *core_; }

 private:
  const EngineCore* core_;
  WorkspaceLease lease_;  // Empty when bound to a caller-owned workspace.
  QueryWorkspace* workspace_;
  // Polled at a bounded stride by every query. Not owned; may be null;
  // must outlive the runner. An unfired token never changes a score
  // (see common/deadline.h).
  const CancelToken* cancel_;
};

}  // namespace simpush

#endif  // SIMPUSH_SIMPUSH_QUERY_RUNNER_H_
