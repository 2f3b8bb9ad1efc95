// Benchmark harness: runs every method over a query set with its five
// paper parameter settings and produces the (time, error, precision,
// memory) rows behind Figures 4-7 and the scaling tables.

#ifndef SIMPUSH_EVAL_HARNESS_H_
#define SIMPUSH_EVAL_HARNESS_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "baselines/single_source.h"
#include "common/status.h"
#include "eval/ground_truth.h"
#include "graph/graph.h"

namespace simpush {

/// One method instantiation (a method at one parameter setting).
struct MethodSetting {
  std::string method;   ///< e.g. "SimPush".
  std::string setting;  ///< e.g. "eps=0.02".
  /// Builds a fresh algorithm instance over `graph`.
  std::function<std::unique_ptr<SingleSourceAlgorithm>(const Graph&)> make;
};

/// Aggregated measurements for one method setting over a query set.
struct EvalRow {
  std::string method;
  std::string setting;
  double avg_query_seconds = 0;
  double avg_error_at_k = 0;
  double avg_precision_at_k = 0;
  double prepare_seconds = 0;     ///< Index build time (0 if index-free).
  size_t index_bytes = 0;
  size_t peak_memory_bytes = 0;   ///< Index + graph + query scratch.
  size_t queries = 0;
};

/// Harness configuration.
struct HarnessOptions {
  size_t k = 50;
  size_t num_queries = 20;
  uint64_t query_seed = 4242;
  GroundTruthOptions truth;
};

/// Evaluates one method setting against precomputed ground truths.
/// `truths[i]` corresponds to `queries[i]`; k is each truth's pool size.
StatusOr<EvalRow> EvaluateMethod(const Graph& graph,
                                 const MethodSetting& setting,
                                 const std::vector<NodeId>& queries,
                                 const std::vector<GroundTruth>& truths);

/// Builds ground truths for a query set: exact when the graph is small
/// enough, otherwise pooled over the provided methods' top-k results.
StatusOr<std::vector<GroundTruth>> BuildGroundTruths(
    const Graph& graph, const std::vector<NodeId>& queries,
    const std::vector<MethodSetting>& pool_methods,
    const HarnessOptions& options);

/// The paper's five parameter settings for every method (§5.1),
/// optionally scaled for small stand-in graphs. Methods appear in the
/// figure legend order: SimPush, ProbeSim, TopSim, SLING, PRSim, READS,
/// TSF. `which` filters by method name; empty = all.
std::vector<MethodSetting> PaperParameterSweep(
    const std::vector<std::string>& which = {});

}  // namespace simpush

#endif  // SIMPUSH_EVAL_HARNESS_H_
