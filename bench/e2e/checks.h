// Correctness gates and post-window engine replays.
//
// A run prints a result only after three gates pass:
//   1. sampled responses replayed through QueryRunner::QueryInto on the
//      generation that served them give a bit-identical top-k;
//   2. a pre-flight query set on a 1 000-node graph stays within
//      1.05·ε of the exact power-method SimRank (regression_test's
//      tolerance);
//   3. churn only: the final generation's CSR is byte-identical to a
//      mirror DynamicGraph that replayed every accepted batch and then
//      took a full Snapshot().

#ifndef SIMPUSH_BENCH_E2E_CHECKS_H_
#define SIMPUSH_BENCH_E2E_CHECKS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "graph/dynamic_graph.h"
#include "graph/graph.h"
#include "simpush/engine_core.h"
#include "simpush/query_runner.h"
#include "traffic.h"

namespace simpush {
namespace bench_e2e {

/// Gate 2: max |s̃(u,v) − s(u,v)| over 16 seeded sources of the
/// pre-flight graph, against ComputeExactSimRank (whose matrix is
/// computed once and cached in `data_dir`).
StatusOr<double> PreflightMaxError(uint64_t seed, const std::string& data_dir);

/// One node result a response reported: its source and top-k entries.
struct ReplayJob {
  uint64_t generation = 0;
  NodeId node = 0;
  std::vector<std::pair<NodeId, double>> top;
};

/// Extracts the node results of kept /v1/query or /v1/batch bodies.
Status ParseKept(const std::vector<KeptResponse>& kept,
                 std::vector<ReplayJob>* jobs);

/// Runs QueryInto for every node on `core`, `threads` at a time, each
/// worker on its own caller-owned workspace.
Status ReplayQueries(const EngineCore& core, const std::vector<NodeId>& nodes,
                     size_t threads, std::vector<SimPushResult>* results);

/// Outcome of gate 1 (and gate 3 for churn).
struct ReplayCheck {
  size_t checked = 0;
  size_t mismatched = 0;
  size_t generations = 0;   ///< Distinct generations replayed on.
  bool csr_identical = true;
  std::string detail;       ///< First failure, for the log.
};

/// Gate 1 on a workload without writes: every job must name `served`'s
/// generation id and replay to the same top-k on its graph.
StatusOr<ReplayCheck> CheckStatic(const Graph& served,
                                  uint64_t served_generation,
                                  const std::vector<ReplayJob>& jobs);

/// Gates 1 and 3 on the churn workload. Rebuilds each generation a job
/// names by replaying accepted batches on a mirror of `initial`
/// (generation 1), then compares the final full Snapshot() with
/// `served`.
StatusOr<ReplayCheck> CheckChurn(const Graph& initial, const Graph& served,
                                 const std::vector<std::vector<EdgeUpdate>>& batches,
                                 const std::vector<Publish>& accepted,
                                 const std::vector<ReplayJob>& jobs);

}  // namespace bench_e2e
}  // namespace simpush

#endif  // SIMPUSH_BENCH_E2E_CHECKS_H_
