// End-to-end tests of the SimPush engine (Algorithm 1): the Theorem 1
// accuracy guarantee against exact SimRank, across graph families,
// epsilons, decay factors and query nodes (parameterized sweeps), plus
// stats plumbing and ablation switches.

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "reference/graphs.h"
#include "simpush/simpush.h"
#include "test_util.h"

namespace simpush {
namespace {

SimPushOptions TestOptions(double eps = 0.05, double c = 0.6) {
  SimPushOptions options;
  options.epsilon = eps;
  options.decay = c;
  options.walk_budget_cap = 30000;
  return options;
}

TEST(SimPushTest, SelfScoreIsOne) {
  Graph g = testing_util::MakeFixtureGraph();
  SimPushEngine engine(g, TestOptions());
  auto result = engine.Query(0);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->scores[0], 1.0);
}

TEST(SimPushTest, RejectsOutOfRangeQuery) {
  Graph g = testing_util::MakeFixtureGraph();
  SimPushEngine engine(g, TestOptions());
  EXPECT_FALSE(engine.Query(1000).ok());
}

TEST(SimPushTest, RejectsInvalidOptions) {
  Graph g = testing_util::MakeFixtureGraph();
  SimPushOptions bad = TestOptions();
  bad.epsilon = -1.0;
  SimPushEngine engine(g, bad);
  EXPECT_FALSE(engine.Query(0).ok());
}

TEST(SimPushTest, ValidateRejectsNaNAndBoundaries) {
  // NaN makes every comparison false, so a range check written as
  // `x <= lo || x >= hi` silently accepts it — the misconfiguration a
  // `--epsilon nan` CLI flag used to smuggle past validation. Each
  // field must reject NaN and both closed boundaries.
  for (const double bad_value :
       {std::nan(""), 0.0, 1.0, -0.5, 1.5,
        std::numeric_limits<double>::infinity()}) {
    SimPushOptions bad = TestOptions();
    bad.epsilon = bad_value;
    EXPECT_FALSE(bad.Validate().ok()) << "epsilon=" << bad_value;
    bad = TestOptions();
    bad.decay = bad_value;
    EXPECT_FALSE(bad.Validate().ok()) << "decay=" << bad_value;
    bad = TestOptions();
    bad.delta = bad_value;
    EXPECT_FALSE(bad.Validate().ok()) << "delta=" << bad_value;
  }
  EXPECT_TRUE(TestOptions().Validate().ok());
}

TEST(SimPushTest, MeetsErrorBoundOnFixture) {
  Graph g = testing_util::MakeFixtureGraph();
  SimRankMatrix exact = testing_util::ExactSimRank(g);
  SimPushEngine engine(g, TestOptions(0.05));
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    auto result = engine.Query(u);
    ASSERT_TRUE(result.ok());
    EXPECT_LE(testing_util::MaxError(result->scores, exact, u), 0.05)
        << "query " << u;
  }
}

TEST(SimPushTest, UnderestimatesOnly) {
  // Theorem 1 is one-sided: s - s̃ <= ε and s̃ <= s (every stage only
  // drops probability mass). Allow tiny numerical slack.
  Graph g = testing_util::MakeFixtureGraph();
  SimRankMatrix exact = testing_util::ExactSimRank(g);
  SimPushEngine engine(g, TestOptions(0.05));
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    auto result = engine.Query(u);
    ASSERT_TRUE(result.ok());
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (v == u) continue;
      EXPECT_LE(result->scores[v], exact(u, v) + 1e-9)
          << "query " << u << " target " << v;
    }
  }
}

TEST(SimPushTest, StatsArePopulated) {
  Graph g = testing_util::RandomGraph(200, 1600, 131);
  SimPushEngine engine(g, TestOptions(0.02));
  auto result = engine.Query(5);
  ASSERT_TRUE(result.ok());
  const SimPushQueryStats& stats = result->stats;
  EXPECT_GE(stats.max_level, 1u);
  EXPECT_GT(stats.num_attention, 0u);
  EXPECT_GT(stats.gu_node_occurrences, 0u);
  EXPECT_GT(stats.walks_sampled, 0u);
  EXPECT_GT(stats.reverse_pushes, 0u);
  EXPECT_GE(stats.total_seconds, stats.source_push_seconds);
  EXPECT_GT(stats.total_seconds, 0.0);
}

TEST(SimPushTest, DeterministicGivenSeedAndFreshEngine) {
  Graph g = testing_util::RandomGraph(150, 1100, 137);
  auto run = [&g](NodeId u) {
    SimPushEngine engine(g, TestOptions(0.02));
    auto result = engine.Query(u);
    EXPECT_TRUE(result.ok());
    return std::move(result).value().scores;
  };
  const auto a = run(7);
  const auto b = run(7);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_DOUBLE_EQ(a[v], b[v]);
  }
}

TEST(SimPushTest, DanglingQueryNodeGivesZeroVector) {
  // A node with no in-neighbors has s(u, v) = 0 for all v != u.
  Graph g = testing_util::MakeGraph(4, {{0, 1}, {1, 2}, {2, 3}});
  SimPushEngine engine(g, TestOptions());
  auto result = engine.Query(0);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->scores[0], 1.0);
  for (NodeId v = 1; v < 4; ++v) {
    EXPECT_DOUBLE_EQ(result->scores[v], 0.0);
  }
}

TEST(SimPushTest, NoScoreCrossesWeakComponents) {
  // Two disjoint bidirected cycles, {0..4} and {5..10}: √c-walks from
  // one never reach the other, so every cross-component score is
  // exactly 0, while nodes two hops apart on one cycle share in-
  // neighbors and score > 0.
  constexpr NodeId kSplit = 5;
  constexpr NodeId kNodes = 11;
  std::vector<std::pair<NodeId, NodeId>> edges;
  const auto add_cycle = [&edges](NodeId first, NodeId last) {
    for (NodeId a = first; a <= last; ++a) {
      const NodeId b = a == last ? first : a + 1;
      edges.push_back({a, b});
      edges.push_back({b, a});
    }
  };
  add_cycle(0, kSplit - 1);
  add_cycle(kSplit, kNodes - 1);
  Graph g = testing_util::MakeGraph(kNodes, edges);
  SimPushEngine engine(g, TestOptions());
  for (NodeId u = 0; u < kNodes; ++u) {
    auto result = engine.Query(u);
    ASSERT_TRUE(result.ok());
    double within = 0;
    for (NodeId v = 0; v < kNodes; ++v) {
      if ((u < kSplit) != (v < kSplit)) {
        EXPECT_EQ(result->scores[v], 0.0) << "s(" << u << ", " << v << ")";
      } else if (v != u) {
        within = std::max(within, result->scores[v]);
      }
    }
    EXPECT_GT(within, 0.0) << "node " << u;
  }
}

TEST(SimPushTest, GammaAblationOverestimates) {
  // Without the last-meeting correction the estimate can only grow
  // (meeting probability is summed for every level, double-counting
  // walks that meet repeatedly).
  Graph g = testing_util::RandomGraph(100, 900, 139);
  SimPushOptions with = TestOptions(0.02);
  SimPushOptions without = TestOptions(0.02);
  without.use_gamma_correction = false;
  SimPushEngine engine_with(g, with);
  SimPushEngine engine_without(g, without);
  auto a = engine_with.Query(3);
  auto b = engine_without.Query(3);
  ASSERT_TRUE(a.ok() && b.ok());
  double sum_with = 0, sum_without = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_LE(a->scores[v], b->scores[v] + 1e-12);
    sum_with += a->scores[v];
    sum_without += b->scores[v];
  }
  EXPECT_LE(sum_with, sum_without + 1e-12);
}

TEST(SimPushTest, LevelDetectionAblationStillMeetsBound) {
  Graph g = testing_util::MakeFixtureGraph();
  SimRankMatrix exact = testing_util::ExactSimRank(g);
  SimPushOptions options = TestOptions(0.05);
  options.use_level_detection = false;
  SimPushEngine engine(g, options);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    auto result = engine.Query(u);
    ASSERT_TRUE(result.ok());
    EXPECT_LE(testing_util::MaxError(result->scores, exact, u), 0.05);
  }
}

// ---------------------------------------------------------------------
// Property sweep: Theorem 1's bound must hold across graph families,
// epsilons and decay factors.
// ---------------------------------------------------------------------

struct SweepCase {
  const char* family;
  double epsilon;
  double decay;
  uint64_t seed;
};

void PrintTo(const SweepCase& c, std::ostream* os) {
  *os << c.family << "_eps" << c.epsilon << "_c" << c.decay << "_s" << c.seed;
}

class SimPushAccuracySweep : public ::testing::TestWithParam<SweepCase> {
 protected:
  Graph BuildGraph(const SweepCase& c) {
    const std::string family = c.family;
    if (family == "er") {
      return testing_util::RandomGraph(120, 960, c.seed);
    }
    if (family == "powerlaw") {
      auto g = GenerateChungLu(120, 840, 2.2, c.seed);
      EXPECT_TRUE(g.ok());
      return std::move(g).value();
    }
    if (family == "ba") {
      auto g = GenerateBarabasiAlbert(120, 4, c.seed);
      EXPECT_TRUE(g.ok());
      return std::move(g).value();
    }
    if (family == "cycle") {
      auto g = GenerateCycle(60);
      EXPECT_TRUE(g.ok());
      return std::move(g).value();
    }
    if (family == "undirected") {
      auto g = GenerateErdosRenyi(120, 480, c.seed, /*undirected=*/true);
      EXPECT_TRUE(g.ok());
      return std::move(g).value();
    }
    if (family == "social") {
      auto g = GenerateBarabasiAlbert(120, 3, c.seed, /*undirected=*/true);
      EXPECT_TRUE(g.ok());
      return std::move(g).value();
    }
    auto g = GenerateGrid(10, 12);
    EXPECT_TRUE(g.ok());
    return std::move(g).value();
  }
};

TEST_P(SimPushAccuracySweep, MeetsTheorem1Bound) {
  const SweepCase c = GetParam();
  Graph g = BuildGraph(c);
  SimRankMatrix exact = testing_util::ExactSimRank(g, c.decay);
  SimPushOptions options = TestOptions(c.epsilon, c.decay);
  SimPushEngine engine(g, options);
  // A handful of query nodes per configuration keeps runtime sane.
  for (NodeId u = 0; u < g.num_nodes(); u += g.num_nodes() / 5) {
    auto result = engine.Query(u);
    ASSERT_TRUE(result.ok());
    // δ-probabilistic bound; the level-detection walk cap adds slack on
    // top, so assert with a small margin.
    EXPECT_LE(testing_util::MaxError(result->scores, exact, u),
              c.epsilon * 1.05)
        << "family=" << c.family << " query " << u;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SimPushAccuracySweep,
    ::testing::Values(
        SweepCase{"er", 0.10, 0.6, 201}, SweepCase{"er", 0.05, 0.6, 202},
        SweepCase{"er", 0.02, 0.6, 203}, SweepCase{"er", 0.05, 0.4, 204},
        SweepCase{"er", 0.05, 0.8, 205},
        SweepCase{"powerlaw", 0.10, 0.6, 211},
        SweepCase{"powerlaw", 0.05, 0.6, 212},
        SweepCase{"powerlaw", 0.02, 0.6, 213},
        SweepCase{"powerlaw", 0.05, 0.8, 214},
        SweepCase{"ba", 0.05, 0.6, 221}, SweepCase{"ba", 0.02, 0.6, 222},
        SweepCase{"cycle", 0.05, 0.6, 231},
        SweepCase{"grid", 0.05, 0.6, 241},
        SweepCase{"grid", 0.02, 0.6, 242},
        SweepCase{"undirected", 0.05, 0.6, 251},
        SweepCase{"undirected", 0.02, 0.6, 252},
        SweepCase{"social", 0.05, 0.6, 261},
        SweepCase{"social", 0.02, 0.8, 262}));

}  // namespace
}  // namespace simpush
