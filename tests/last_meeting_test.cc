// Tests for Algorithm 4 (last-meeting probability γ within G_u),
// validated against a direct Monte-Carlo simulation of Definition 4:
// two √c-walks from w constrained to G_u, checking whether they meet at
// an attention node on a deeper level.

#include <cmath>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "reference/gamma.h"
#include "simpush/hitting.h"
#include "simpush/last_meeting.h"
#include "simpush/options.h"
#include "simpush/source_push.h"
#include "simpush/workspace.h"
#include "test_util.h"

namespace simpush {
namespace {

struct Fixture {
  Graph graph;
  SourceGraph gu;
  DerivedParams params;
  HittingTable table;         ///< Algorithm 3 over gu.
  std::vector<double> gamma;  ///< Algorithm 4 over gu and table.
};

Fixture MakeFixture(const Graph& graph, NodeId u, double eps,
                    uint64_t seed = 1) {
  Fixture f{graph, {}, {}, {}, {}};
  SimPushOptions options;
  options.epsilon = eps;
  options.use_level_detection = false;
  f.params = ComputeDerivedParams(options);
  Rng rng(seed);
  QueryWorkspace workspace;
  EXPECT_TRUE(SourcePushInto(f.graph, u, options, f.params, &rng, &workspace,
                             &f.gu, nullptr)
                  .ok());
  EXPECT_TRUE(ComputeHittingTable(f.graph, f.gu, f.params.sqrt_c, &workspace,
                                  &f.table)
                  .ok());
  EXPECT_TRUE(
      ComputeLastMeetingProbabilities(f.gu, f.table, &workspace, &f.gamma)
          .ok());
  return f;
}

// One √c-walk step *within G_u* from (level, node): move to a uniform
// in-neighbor (all in-neighbors of a node at level < L are in G_u at
// level+1), surviving w.p. √c. Returns kInvalidNode when stopped.
NodeId GuStep(const Graph& graph, const SourceGraph& gu, uint32_t level,
              NodeId node, double sqrt_c, Rng* rng) {
  if (level >= gu.max_level()) return kInvalidNode;  // No deeper level.
  if (!rng->NextBernoulli(sqrt_c)) return kInvalidNode;
  const uint32_t deg = graph.InDegree(node);
  if (deg == 0) return kInvalidNode;
  return graph.InNeighborAt(node, static_cast<uint32_t>(rng->NextBounded(deg)));
}

// Monte-Carlo estimate of γ^(ℓ)(w): fraction of paired G_u walks that
// never meet at an attention node on a deeper level.
double McGamma(const Graph& graph, const SourceGraph& gu, uint32_t level,
               NodeId w, double sqrt_c, uint64_t trials, Rng* rng) {
  uint64_t never = 0;
  for (uint64_t i = 0; i < trials; ++i) {
    NodeId a = w;
    NodeId b = w;
    uint32_t l = level;
    bool met = false;
    while (true) {
      const NodeId na = GuStep(graph, gu, l, a, sqrt_c, rng);
      if (na == kInvalidNode) break;
      const NodeId nb = GuStep(graph, gu, l, b, sqrt_c, rng);
      if (nb == kInvalidNode) break;
      ++l;
      a = na;
      b = nb;
      AttentionId id;
      if (a == b && gu.LookupAttention(l, a, &id)) {
        met = true;
        break;
      }
    }
    if (!met) ++never;
  }
  return double(never) / double(trials);
}

TEST(LastMeetingTest, GammaInUnitInterval) {
  Graph g = testing_util::RandomGraph(150, 1000, 71);
  Fixture f = MakeFixture(g, 5, 0.02, 71);
  const std::vector<double>& gamma = f.gamma;
  ASSERT_EQ(gamma.size(), f.gu.num_attention());
  for (double value : gamma) {
    EXPECT_GE(value, 0.0);
    EXPECT_LE(value, 1.0);
  }
}

TEST(LastMeetingTest, DeepestLevelGammaIsOne) {
  // Attention nodes at level L have no deeper attention levels, so
  // γ^(L)(w) = 1 by Definition 4.
  Graph g = testing_util::MakeFixtureGraph();
  Fixture f = MakeFixture(g, 0, 0.02);
  const std::vector<double>& gamma = f.gamma;
  for (AttentionId id = 0; id < f.gu.num_attention(); ++id) {
    if (f.gu.attention_nodes()[id].level == f.gu.max_level()) {
      EXPECT_DOUBLE_EQ(gamma[id], 1.0);
    }
  }
}

TEST(LastMeetingTest, MatchesMonteCarloOnFixture) {
  Graph g = testing_util::MakeFixtureGraph();
  Fixture f = MakeFixture(g, 0, 0.02);
  const std::vector<double>& gamma = f.gamma;
  Rng rng(99);
  for (AttentionId id = 0; id < f.gu.num_attention(); ++id) {
    const AttentionNode& w = f.gu.attention_nodes()[id];
    const double mc = McGamma(f.graph, f.gu, w.level, w.node, f.params.sqrt_c,
                              150000, &rng);
    EXPECT_NEAR(gamma[id], mc, 0.01)
        << "attention (" << w.level << "," << w.node << ")";
  }
}

TEST(LastMeetingTest, MatchesMonteCarloOnRandomGraphs) {
  for (uint64_t seed : {81u, 82u}) {
    Graph g = testing_util::RandomGraph(60, 420, seed);
    Fixture f = MakeFixture(g, static_cast<NodeId>(seed % 60), 0.05, seed);
    const std::vector<double>& gamma = f.gamma;
    Rng rng(seed * 7);
    // Spot-check the first few attention occurrences to keep runtime low.
    const size_t check = std::min<size_t>(f.gu.num_attention(), 6);
    for (AttentionId id = 0; id < check; ++id) {
      const AttentionNode& w = f.gu.attention_nodes()[id];
      const double mc = McGamma(f.graph, f.gu, w.level, w.node,
                                f.params.sqrt_c, 100000, &rng);
      EXPECT_NEAR(gamma[id], mc, 0.015)
          << "seed " << seed << " attention (" << w.level << "," << w.node
          << ")";
    }
  }
}

// Algorithm 4's one-sweep-per-occurrence γ equals the paper's
// recursion (Eqs. 9-11) evaluated term by term over the same hitting
// table (reference/gamma.h), on graphs deep enough that the Eq. 11
// subtraction is non-zero.
TEST(LastMeetingTest, MatchesEquationOracle) {
  size_t two_deep = 0;  // Occurrences two or more levels above L.
  for (uint64_t seed : {91u, 92u, 93u}) {
    Graph g = testing_util::RandomGraph(100, 700, seed);
    Fixture f = MakeFixture(g, static_cast<NodeId>(seed % 100), 0.02, seed);
    ASSERT_GT(f.gu.num_attention(), 0u);
    for (AttentionId id = 0; id < f.gu.num_attention(); ++id) {
      const double oracle = ReferenceGamma(f.gu, f.table, id);
      EXPECT_NEAR(f.gamma[id], oracle, 1e-12)
          << "seed " << seed << " attention " << id;
      if (f.gu.attention_nodes()[id].level + 2 <= f.gu.max_level()) {
        ++two_deep;
      }
    }
  }
  EXPECT_GT(two_deep, 0u);
}

TEST(LastMeetingTest, NoAttentionNodesYieldsEmpty) {
  Graph g = testing_util::MakeGraph(3, {{0, 1}, {1, 2}});
  Fixture f = MakeFixture(g, 0, 0.05);  // Query node 0 has no in-edges.
  const std::vector<double>& gamma = f.gamma;
  EXPECT_TRUE(gamma.empty());
}

}  // namespace
}  // namespace simpush
