// Tests for the power method against hand-derived SimRank values, and
// for the pairwise Monte-Carlo estimator.

#include <cmath>

#include "exact/monte_carlo.h"
#include "exact/power_method.h"
#include "graph/generators.h"
#include "gtest/gtest.h"
#include "reference/graphs.h"
#include "test_util.h"

namespace simpush {
namespace {

constexpr double kC = 0.6;

TEST(PowerMethodTest, DiagonalIsOne) {
  Graph g = testing_util::RandomGraph(30, 200, 21);
  SimRankMatrix s = testing_util::ExactSimRank(g, kC);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_DOUBLE_EQ(s(v, v), 1.0);
  }
}

TEST(PowerMethodTest, SymmetricAndBounded) {
  Graph g = testing_util::RandomGraph(40, 250, 23);
  SimRankMatrix s = testing_util::ExactSimRank(g, kC);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_NEAR(s(u, v), s(v, u), 1e-9);
      EXPECT_GE(s(u, v), 0.0);
      EXPECT_LE(s(u, v), 1.0 + 1e-12);
    }
  }
}

TEST(PowerMethodTest, TwoNodeMutualCycle) {
  // 0 <-> 1: I(0)={1}, I(1)={0}. s(0,1) = c·s(1,0) => s(0,1)=0.
  Graph g = testing_util::MakeGraph(2, {{0, 1}, {1, 0}});
  SimRankMatrix s = testing_util::ExactSimRank(g, kC);
  EXPECT_NEAR(s(0, 1), 0.0, 1e-9);
}

TEST(PowerMethodTest, SharedParentPair) {
  // 2 -> 0, 2 -> 1: s(0,1) = c·s(2,2) = c.
  Graph g = testing_util::MakeGraph(3, {{2, 0}, {2, 1}});
  SimRankMatrix s = testing_util::ExactSimRank(g, kC);
  EXPECT_NEAR(s(0, 1), kC, 1e-9);
}

TEST(PowerMethodTest, StarSpokesAnalytic) {
  // All spokes share the single in-neighbor (hub 0) when bidirectional:
  // s(spoke_i, spoke_j) = c·s(0,0) = c.
  auto g = GenerateStar(5, /*bidirectional=*/true);
  ASSERT_TRUE(g.ok());
  SimRankMatrix s = testing_util::ExactSimRank(*g, kC);
  for (NodeId a = 1; a < 5; ++a) {
    for (NodeId b = a + 1; b < 5; ++b) {
      EXPECT_NEAR(s(a, b), kC, 1e-9);
    }
  }
}

TEST(PowerMethodTest, CompleteGraphAnalytic) {
  // K_n (directed, no self-loops) is vertex-transitive: all off-diagonal
  // values equal x with x = c·((n-2)x + 1 + (n-2)·((n-3)x + 2x... )
  // Simpler: verify self-consistency of the definition numerically.
  auto g = GenerateComplete(5);
  ASSERT_TRUE(g.ok());
  SimRankMatrix s = testing_util::ExactSimRank(*g, kC);
  const double x = s(0, 1);
  for (NodeId a = 0; a < 5; ++a) {
    for (NodeId b = 0; b < 5; ++b) {
      if (a != b) {
        EXPECT_NEAR(s(a, b), x, 1e-9);
      }
    }
  }
  // Definition check: s(a,b) = c/(16)·sum over in-pairs. In-neighbors of
  // a: all but a; of b: all but b. Pairs (x,y): 4x4=16. Count: pairs with
  // x==y (3 common in-neighbors excluding a,b) contribute 1 each; pair
  // (b,a) contributes x; remaining pairs contribute x.
  const double rhs = kC / 16.0 * (3.0 * 1.0 + 13.0 * x);
  EXPECT_NEAR(x, rhs, 1e-9);
}

TEST(PowerMethodTest, SatisfiesRecursiveDefinition) {
  Graph g = testing_util::MakeFixtureGraph();
  SimRankMatrix s = testing_util::ExactSimRank(g, kC);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (u == v) continue;
      auto in_u = g.InNeighbors(u);
      auto in_v = g.InNeighbors(v);
      if (in_u.empty() || in_v.empty()) {
        EXPECT_NEAR(s(u, v), 0.0, 1e-9);
        continue;
      }
      double acc = 0;
      for (NodeId a : in_u) {
        for (NodeId b : in_v) acc += s(a, b);
      }
      const double rhs = kC * acc / (double(in_u.size()) * in_v.size());
      EXPECT_NEAR(s(u, v), rhs, 1e-7) << "pair (" << u << "," << v << ")";
    }
  }
}

TEST(PowerMethodTest, RejectsOversizedGraph) {
  Graph g = testing_util::RandomGraph(100, 300, 31);
  PowerMethodOptions options;
  options.max_nodes = 50;
  EXPECT_FALSE(ComputeExactSimRank(g, options).ok());
}

TEST(PowerMethodTest, RejectsBadDecay) {
  Graph g = testing_util::RandomGraph(10, 30, 33);
  PowerMethodOptions options;
  options.decay = 1.5;
  EXPECT_FALSE(ComputeExactSimRank(g, options).ok());
}

TEST(PowerMethodTest, SingleSourceMatchesMatrixRow) {
  Graph g = testing_util::RandomGraph(25, 120, 35);
  PowerMethodOptions options;
  SimRankMatrix s = testing_util::ExactSimRank(g, kC);
  auto row = ComputeExactSingleSource(g, 4, options);
  ASSERT_TRUE(row.ok());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_NEAR((*row)[v], s(4, v), 1e-6);
  }
}

TEST(MonteCarloTest, MatchesExactOnFixture) {
  Graph g = testing_util::MakeFixtureGraph();
  SimRankMatrix exact = testing_util::ExactSimRank(g, kC);
  MonteCarloOptions options;
  options.num_samples = 400000;
  for (const auto& [u, v] : std::vector<std::pair<NodeId, NodeId>>{
           {1, 2}, {4, 5}, {0, 3}, {7, 8}}) {
    auto estimate = EstimateSimRankPair(g, u, v, options);
    ASSERT_TRUE(estimate.ok());
    EXPECT_NEAR(*estimate, exact(u, v), 0.006)
        << "pair (" << u << "," << v << ")";
  }
}

TEST(MonteCarloTest, IdenticalNodesGiveOne) {
  Graph g = testing_util::MakeFixtureGraph();
  auto estimate = EstimateSimRankPair(g, 3, 3, MonteCarloOptions{});
  ASSERT_TRUE(estimate.ok());
  EXPECT_DOUBLE_EQ(*estimate, 1.0);
}

TEST(MonteCarloTest, RejectsBadInput) {
  Graph g = testing_util::MakeFixtureGraph();
  EXPECT_FALSE(EstimateSimRankPair(g, 0, 100, MonteCarloOptions{}).ok());
  MonteCarloOptions zero;
  zero.num_samples = 0;
  EXPECT_FALSE(EstimateSimRankPair(g, 0, 1, zero).ok());
}

}  // namespace
}  // namespace simpush
