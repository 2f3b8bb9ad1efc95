#include "simpush/query_runner.h"

#include <string>

#include "common/rng.h"
#include "common/timer.h"
#include "simpush/hitting.h"
#include "simpush/last_meeting.h"
#include "simpush/reverse_push.h"
#include "simpush/source_push.h"

namespace simpush {

QueryRunner::QueryRunner(const EngineCore& core, QueryWorkspace* workspace,
                         const CancelToken* cancel)
    : core_(&core), workspace_(workspace), cancel_(cancel) {}

QueryRunner::QueryRunner(const EngineCore& core, WorkspacePool& pool,
                         const CancelToken* cancel)
    : core_(&core),
      lease_(pool.Acquire(cancel)),
      workspace_(lease_.get()),
      cancel_(cancel) {}

Status QueryRunner::SourceSide(NodeId u, SimPushQueryStats* stats) {
  *stats = SimPushQueryStats{};
  if (workspace_ == nullptr) {
    // The cancel-aware pool wait gave up before a workspace freed up.
    const Status cancel_status = CheckCancel(cancel_);
    if (!cancel_status.ok()) return cancel_status;
    return Status::Internal("query runner has no workspace");
  }
  SIMPUSH_RETURN_NOT_OK(core_->options_status());
  const Graph& graph = core_->graph();
  if (u >= graph.num_nodes()) {
    return Status::InvalidArgument("query node " + std::to_string(u) +
                                   " out of range");
  }
  const SimPushOptions& options = core_->options();
  const DerivedParams& derived = core_->derived();
  QueryWorkspace& workspace = *workspace_;
  Timer stage_timer;

  // The RNG stream is pinned to (seed, query node): reusing a
  // workspace, re-running a query, or moving it to another thread (or
  // another pooled workspace) cannot change the result.
  Rng query_rng(core_->QuerySeed(u));

  // Stage 1: Source-Push (Algorithm 2) — attention nodes + G_u.
  SourcePushStats sp_stats;
  SourceGraph& gu = workspace.source_graph;
  SIMPUSH_RETURN_NOT_OK(SourcePushInto(graph, u, options, derived,
                                       &query_rng, &workspace, &gu,
                                       &sp_stats, cancel_));
  stats->max_level = sp_stats.detected_level;
  stats->num_attention = sp_stats.num_attention;
  stats->gu_node_occurrences = sp_stats.gu_node_occurrences;
  stats->walks_sampled = sp_stats.walks_sampled;
  stats->source_push_seconds = stage_timer.ElapsedSeconds();

  // Stage 2: hitting probabilities within G_u (Algorithm 3) and
  // last-meeting probabilities γ (Algorithm 4).
  stage_timer.Restart();
  std::vector<double>& gamma = workspace.gamma;
  if (options.use_gamma_correction) {
    SIMPUSH_RETURN_NOT_OK(ComputeHittingTable(graph, gu, derived.sqrt_c,
                                              &workspace,
                                              &workspace.hitting_table,
                                              cancel_));
    SIMPUSH_RETURN_NOT_OK(ComputeLastMeetingProbabilities(
        gu, workspace.hitting_table, &workspace, &gamma, cancel_));
  } else {
    gamma.assign(gu.num_attention(), 1.0);
  }
  stats->gamma_seconds = stage_timer.ElapsedSeconds();
  return Status::OK();
}

Status QueryRunner::QueryInto(NodeId u, SimPushResult* result) {
  Timer total_timer;
  SIMPUSH_RETURN_NOT_OK(SourceSide(u, &result->stats));

  // Stage 3: Reverse-Push (Algorithm 5).
  Timer stage_timer;
  const Graph& graph = core_->graph();
  const DerivedParams& derived = core_->derived();
  QueryWorkspace& workspace = *workspace_;
  result->scores.assign(graph.num_nodes(), 0.0);
  ReversePushStats rp_stats;
  SIMPUSH_RETURN_NOT_OK(ReversePush(graph, workspace.source_graph,
                                    workspace.gamma, derived.sqrt_c,
                                    derived.eps_h, &workspace,
                                    &result->scores, &rp_stats, cancel_));
  result->scores[u] = 1.0;  // Algorithm 5 line 10.
  result->stats.reverse_pushes = rp_stats.pushes;
  result->stats.reverse_edges = rp_stats.edges_traversed;
  result->stats.reverse_push_seconds = stage_timer.ElapsedSeconds();

  result->stats.total_seconds = total_timer.ElapsedSeconds();
  return Status::OK();
}

StatusOr<SimPushResult> QueryRunner::Query(NodeId u) {
  SimPushResult result;
  SIMPUSH_RETURN_NOT_OK(QueryInto(u, &result));
  return result;
}

}  // namespace simpush
