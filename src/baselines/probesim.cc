#include "baselines/probesim.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <unordered_map>

#include "walk/walker.h"

namespace simpush {

ProbeSim::ProbeSim(const Graph& graph, const ProbeSimOptions& options)
    : graph_(graph),
      options_(options),
      sqrt_c_(std::sqrt(options.decay)),
      rng_(options.seed) {}

uint64_t ProbeSim::NumWalks() const {
  const double n = static_cast<double>(graph_.num_nodes());
  const double walks = std::log(2.0 * n / options_.delta) /
                       (2.0 * options_.epsilon * options_.epsilon);
  uint64_t result = static_cast<uint64_t>(std::ceil(std::max(walks, 1.0)));
  if (options_.max_walks > 0) result = std::min(result, options_.max_walks);
  return result;
}

StatusOr<std::vector<double>> ProbeSim::Query(NodeId u) {
  if (u >= graph_.num_nodes()) {
    return Status::InvalidArgument("query node out of range");
  }
  const NodeId n = graph_.num_nodes();
  const uint64_t num_walks = NumWalks();
  std::vector<double> scores(n, 0.0);
  Walker walker(graph_, sqrt_c_);
  Rng rng = rng_.Fork();

  // Probe scratch: probability mass per node at the current expansion
  // depth, with touched lists to avoid O(n) clears per level.
  std::vector<double> mass(n, 0.0);
  std::vector<double> mass_next(n, 0.0);
  std::vector<NodeId> touched;
  std::vector<NodeId> touched_next;

  const double inv_walks = 1.0 / static_cast<double>(num_walks);
  // Probe pruning: mass below kTrimRatio·ε is dropped during the reverse
  // expansion (the reference implementation prunes equivalently; total
  // induced error <= kTrimRatio·ε per level).
  constexpr double kTrimRatio = 0.02;
  const double trim = kTrimRatio * options_.epsilon;
  for (uint64_t i = 0; i < num_walks; ++i) {
    const Walk walk = walker.SampleWalk(u, &rng);
    const size_t length = walk.length();
    // Probe each step ℓ of the sampled walk.
    for (size_t probe_step = 1; probe_step <= length; ++probe_step) {
      const NodeId meet_node = walk.positions[probe_step];
      // Expand from meet_node back toward step-0 nodes v: after j
      // expansion hops, mass[v] is the probability a √c-walk from v is
      // at meet_node at step probe_step given it follows this reverse
      // path, with first-meeting exclusion applied at each hop.
      touched.clear();
      mass[meet_node] = 1.0;
      touched.push_back(meet_node);
      for (size_t hop = 0; hop < probe_step; ++hop) {
        // Nodes at reverse depth `hop` correspond to walk step
        // probe_step - hop. Exclusion: a walk from v that sits on the
        // sampled walk's node at an *earlier* matching step would have
        // first-met before probe_step; zero that mass.
        const size_t walk_step = probe_step - hop;
        touched_next.clear();
        for (NodeId x : touched) {
          const double p = mass[x];
          mass[x] = 0.0;
          if (p <= trim) continue;
          for (NodeId v : graph_.OutNeighbors(x)) {
            // A √c-walk from v steps to x w.p. √c/d_I(v).
            const double share = sqrt_c_ * p / graph_.InDegree(v);
            // Exclusion check: v at step walk_step-1 equals the sampled
            // walk's node there -> earlier first meeting, skip.
            if (walk_step >= 2 && v == walk.positions[walk_step - 1]) {
              continue;
            }
            if (mass_next[v] == 0.0) touched_next.push_back(v);
            mass_next[v] += share;
          }
        }
        std::swap(mass, mass_next);
        std::swap(touched, touched_next);
      }
      for (NodeId v : touched) {
        if (v != u) scores[v] += mass[v] * inv_walks;
        mass[v] = 0.0;
      }
      touched.clear();
    }
  }
  scores[u] = 1.0;
  return scores;
}

}  // namespace simpush
