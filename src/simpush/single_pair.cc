#include "simpush/single_pair.h"

#include <algorithm>
#include <cmath>

#include "simpush/hitting.h"
#include "simpush/last_meeting.h"
#include "simpush/source_push.h"

namespace simpush {

SinglePairSession::SinglePairSession(const Graph& graph, NodeId u,
                                     const SimPushOptions& options)
    : graph_(&graph),
      source_(u),
      options_(options),
      rng_(options.seed ^ (0x9E3779B97F4A7C15ULL * (u + 1))) {}

StatusOr<SinglePairSession> SinglePairSession::Create(
    const Graph& graph, NodeId u, const SimPushOptions& options) {
  SIMPUSH_RETURN_NOT_OK(options.Validate());
  if (u >= graph.num_nodes()) {
    return Status::InvalidArgument("query node out of range");
  }
  SinglePairSession session(graph, u, options);
  const DerivedParams params = ComputeDerivedParams(options);
  session.sqrt_c_ = params.sqrt_c;

  // Stages 1-2 of Algorithm 1: attention discovery + γ correction.
  SourcePushStats sp_stats;
  Rng source_rng = session.rng_.Fork();
  auto gu = SourcePush(graph, u, options, params, &source_rng, &sp_stats);
  if (!gu.ok()) return gu.status();
  std::vector<double> gamma(gu->num_attention(), 1.0);
  if (options.use_gamma_correction) {
    HittingTable hitting = ComputeHittingTable(graph, *gu, params.sqrt_c);
    gamma = ComputeLastMeetingProbabilities(*gu, hitting);
  }

  session.max_level_ = gu->max_level();
  session.num_attention_ = gu->num_attention();
  // A level's attention ids ascend by node (SourceGraph's contract), so
  // each residue level comes out in the node order Estimate searches.
  session.residues_.assign(gu->max_level(), {});
  for (AttentionId id = 0; id < gu->num_attention(); ++id) {
    const AttentionNode& attention = gu->attention_nodes()[id];
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

StatusOr<SinglePairResult> SinglePairSession::Estimate(NodeId v,
                                                       uint64_t num_walks) {
  if (v >= graph_->num_nodes()) {
    return Status::InvalidArgument("target node out of range");
  }
  SinglePairResult result;
  if (v == source_) {
    result.score = 1.0;
    return result;
  }
  if (num_walks == 0) num_walks = default_walks_;
  result.walks_used = num_walks;
  if (max_level_ == 0) {
    result.score = 0.0;  // no attention nodes -> s⁺ below ε_h everywhere
    return result;
  }

  double total = 0.0;
  for (uint64_t i = 0; i < num_walks; ++i) {
    NodeId current = v;
    for (uint32_t level = 1; level <= max_level_; ++level) {
      // √c-walk step: stop w.p. 1-√c, else jump to a random in-neighbor.
      if (!rng_.NextBernoulli(sqrt_c_)) break;
      const uint32_t degree = graph_->InDegree(current);
      if (degree == 0) break;
      current = graph_->InNeighborAt(
          current, static_cast<uint32_t>(rng_.NextBounded(degree)));
      const auto& level_residues = residues_[level - 1];
      auto it = std::lower_bound(
          level_residues.begin(), level_residues.end(), current,
          [](const auto& entry, NodeId node) { return entry.first < node; });
      if (it != level_residues.end() && it->first == current) {
        total += it->second;
      }
    }
  }
  result.score = total / static_cast<double>(num_walks);
  return result;
}

}  // namespace simpush
