#include "simpush/single_pair.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "simpush/engine_core.h"
#include "simpush/query_runner.h"
#include "simpush/workspace.h"

namespace simpush {

StatusOr<SinglePairSession> SinglePairSession::Create(
    const Graph& graph, NodeId u, const SimPushOptions& options) {
  // Stages 1-2 of Algorithm 1, exactly as a single-source query for u
  // runs them.
  const EngineCore core(graph, options);
  QueryWorkspace workspace;
  SimPushQueryStats stats;
  SIMPUSH_RETURN_NOT_OK(QueryRunner(core, &workspace).SourceSide(u, &stats));
  const SourceGraph& gu = workspace.source_graph;
  const std::vector<double>& gamma = workspace.gamma;

  const DerivedParams& params = core.derived();
  SinglePairSession session(graph, u, params.sqrt_c, core.QuerySeed(u));
  session.max_level_ = gu.max_level();
  session.num_attention_ = gu.num_attention();
  // Residue levels stop at the deepest attention level, often above L.
  // A level's attention ids ascend by node (SourceGraph's contract), so
  // each residue level comes out in the node order Estimate searches.
  uint32_t deepest = 0;
  for (const AttentionNode& attention : gu.attention_nodes()) {
    deepest = std::max(deepest, attention.level);
  }
  session.residues_.assign(deepest, {});
  for (AttentionId id = 0; id < gu.num_attention(); ++id) {
    const AttentionNode& attention = gu.attention_nodes()[id];
    // Levels are 1..L; store at index level-1.
    session.residues_[attention.level - 1].emplace_back(
        attention.node, attention.hitting_prob * gamma[id]);
  }

  // Hoeffding walk budget: each walk's accumulated residue lies in
  // [0, B] with B = √c/(1-√c), so T = B²·ln(2/δ)/(2ε²) gives ±ε w.p.
  // 1-δ for the Monte-Carlo half of the estimate.
  const double bound = params.sqrt_c / (1.0 - params.sqrt_c);
  session.default_walks_ = static_cast<uint64_t>(
      std::ceil(bound * bound * std::log(2.0 / options.delta) /
                (2.0 * options.epsilon * options.epsilon)));
  if (session.default_walks_ == 0) session.default_walks_ = 1;
  return session;
}

StatusOr<SinglePairResult> SinglePairSession::Estimate(
    NodeId v, uint64_t num_walks) const {
  if (v >= walker_.graph().num_nodes()) {
    return Status::InvalidArgument("target node out of range");
  }
  SinglePairResult result;
  if (v == source_) {
    result.score = 1.0;
    return result;
  }
  if (num_walks == 0) num_walks = default_walks_;
  result.walks_used = num_walks;
  if (residues_.empty()) {
    result.score = 0.0;  // no attention nodes -> s⁺ below ε_h everywhere
    return result;
  }

  // No residue lies deeper than residues_.size(), so walks stop there.
  const uint32_t cap = static_cast<uint32_t>(residues_.size());
  Rng rng(DeriveStreamSeed(query_seed_, v));
  double total = 0.0;
  const auto accumulate = [this, &total](uint32_t level, NodeId node) {
    const auto& level_residues = residues_[level - 1];
    auto it = std::lower_bound(
        level_residues.begin(), level_residues.end(), node,
        [](const auto& entry, NodeId target) { return entry.first < target; });
    if (it != level_residues.end() && it->first == node) total += it->second;
  };
  for (uint64_t i = 0; i < num_walks; ++i) {
    walker_.SampleWalkVisit(v, &rng, accumulate, cap);
  }
  result.score = total / static_cast<double>(num_walks);
  return result;
}

}  // namespace simpush
