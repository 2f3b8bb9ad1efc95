// Regression and adversarial-topology tests: graph shapes that have
// historically broken push-style SimRank implementations (dangling
// chains, self-referential hubs, disconnected components, multi-level
// node reappearance, near-threshold attention mass).

#include <cmath>

#include "gtest/gtest.h"
#include "reference/graphs.h"
#include "simpush/simpush.h"
#include "test_util.h"

namespace simpush {
namespace {

SimPushOptions TightOptions(double eps = 0.02) {
  SimPushOptions options;
  options.epsilon = eps;
  options.walk_budget_cap = 30000;
  return options;
}

void ExpectWithinEps(const Graph& g, double eps, double decay = 0.6) {
  SimRankMatrix exact = testing_util::ExactSimRank(g, decay);
  SimPushOptions options = TightOptions(eps);
  options.decay = decay;
  SimPushEngine engine(g, options);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    auto result = engine.Query(u);
    ASSERT_TRUE(result.ok()) << "query " << u;
    EXPECT_LE(testing_util::MaxError(result->scores, exact, u), eps * 1.05)
        << "query " << u;
  }
}

TEST(RegressionTest, DanglingChain) {
  // 0 <- 1 <- 2 <- 3 <- 4, head has no in-edges: walks die upstream.
  Graph g = testing_util::MakeGraph(5, {{1, 0}, {2, 1}, {3, 2}, {4, 3}});
  ExpectWithinEps(g, 0.02);
}

TEST(RegressionTest, SelfLoopHub) {
  // A hub with a self-loop: the walk can stay in place, which breaks
  // implementations assuming level-l nodes differ from level-(l+1).
  Graph g = testing_util::MakeGraph(
      4, {{0, 0}, {1, 0}, {2, 0}, {0, 1}, {0, 2}, {3, 1}, {3, 2}});
  ExpectWithinEps(g, 0.02);
}

TEST(RegressionTest, TwoDisconnectedComponents) {
  // Cross-component SimRank is exactly zero; no leakage allowed.
  Graph g = testing_util::MakeGraph(
      6, {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}});
  SimPushEngine engine(g, TightOptions());
  auto result = engine.Query(0);
  ASSERT_TRUE(result.ok());
  for (NodeId v = 3; v < 6; ++v) {
    EXPECT_DOUBLE_EQ(result->scores[v], 0.0) << "node " << v;
  }
  ExpectWithinEps(g, 0.02);
}

TEST(RegressionTest, NodeAttentionOnMultipleLevels) {
  // A 2-cycle behind the query makes the same node reappear on every
  // other level (the w_c case of Fig. 1(a)).
  Graph g = testing_util::MakeGraph(
      4, {{1, 0}, {2, 1}, {1, 2}, {3, 1}});
  ExpectWithinEps(g, 0.01);
}

TEST(RegressionTest, BipartiteDoubleCover) {
  // Bipartite graphs make paired walks oscillate between sides; meeting
  // parity issues show up here if levels are misaligned.
  Graph g = testing_util::MakeGraph(
      6, {{0, 3}, {3, 0}, {1, 3}, {3, 1}, {1, 4}, {4, 1}, {2, 4}, {4, 2},
          {2, 5}, {5, 2}, {0, 5}, {5, 0}});
  ExpectWithinEps(g, 0.02);
}

TEST(RegressionTest, HighDecayFactor) {
  // c = 0.8: walks are long, L* is deep, γ corrections large. (c = 0.9
  // pushes the γ stage's 1/ε³ term past any unit-test budget — L* > 130
  // with thousands of attention occurrences per query; the sensitivity
  // bench covers the decay sweep with measured cost instead.)
  Graph g = testing_util::RandomGraph(60, 360, 901);
  ExpectWithinEps(g, 0.05, /*decay=*/0.8);
}

TEST(RegressionTest, LowDecayFactor) {
  // c = 0.2: nearly all SimRank mass sits on level 1.
  Graph g = testing_util::RandomGraph(60, 360, 903);
  ExpectWithinEps(g, 0.02, /*decay=*/0.2);
}

TEST(RegressionTest, StarQueryFromHubAndSpoke) {
  auto star = GenerateStar(20, /*bidirectional=*/true);
  ASSERT_TRUE(star.ok());
  SimRankMatrix exact = testing_util::ExactSimRank(*star);
  SimPushEngine engine(*star, TightOptions(0.01));
  for (NodeId u : {NodeId(0), NodeId(1), NodeId(19)}) {
    auto result = engine.Query(u);
    ASSERT_TRUE(result.ok());
    EXPECT_LE(testing_util::MaxError(result->scores, exact, u), 0.0105);
  }
  // Analytic check: spokes have pairwise SimRank exactly c.
  auto result = engine.Query(1);
  ASSERT_TRUE(result.ok());
  for (NodeId v = 2; v < 20; ++v) {
    EXPECT_NEAR(result->scores[v], 0.6, 0.0105);
  }
}

TEST(RegressionTest, CompleteGraphAllPairsEqual) {
  auto g = GenerateComplete(8);
  ASSERT_TRUE(g.ok());
  SimPushEngine engine(*g, TightOptions(0.01));
  auto result = engine.Query(3);
  ASSERT_TRUE(result.ok());
  // Vertex transitivity: every non-query score identical.
  const double first = result->scores[0];
  for (NodeId v = 0; v < 8; ++v) {
    if (v == 3) continue;
    EXPECT_NEAR(result->scores[v], first, 1e-9);
  }
}

TEST(RegressionTest, EpsilonLargerThanAllScores) {
  // With a huge ε the algorithm may legally return all zeros, but must
  // not crash or return garbage.
  Graph g = testing_util::RandomGraph(50, 250, 905);
  SimPushOptions options = TightOptions(0.9);
  SimPushEngine engine(g, options);
  auto result = engine.Query(5);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->scores[5], 1.0);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (v == 5) continue;
    EXPECT_GE(result->scores[v], 0.0);
    EXPECT_LE(result->scores[v], 1.0);
  }
}

TEST(RegressionTest, RepeatedQueriesSameEngineStayCorrect) {
  // Workspace reuse across many queries must not leak state.
  Graph g = testing_util::RandomGraph(80, 560, 907);
  SimRankMatrix exact = testing_util::ExactSimRank(g);
  SimPushEngine engine(g, TightOptions(0.05));
  for (int round = 0; round < 3; ++round) {
    for (NodeId u = 0; u < g.num_nodes(); u += 7) {
      auto result = engine.Query(u);
      ASSERT_TRUE(result.ok());
      EXPECT_LE(testing_util::MaxError(result->scores, exact, u), 0.0525)
          << "round " << round << " query " << u;
    }
  }
}

}  // namespace
}  // namespace simpush
