// Cross-module property tests: engine invariants that must hold on any
// graph, swept over topologies and ε settings with TEST_P.

#include <cmath>
#include <tuple>

#include "exact/power_method.h"
#include "graph/generators.h"
#include "gtest/gtest.h"
#include "reference/graphs.h"
#include "simpush/simpush.h"

namespace simpush {
namespace {

// Builds one of several qualitatively different topologies.
StatusOr<Graph> BuildTopology(const std::string& kind, uint64_t seed) {
  if (kind == "er") return GenerateErdosRenyi(120, 840, seed);
  if (kind == "chunglu") return GenerateChungLu(150, 900, 2.3, seed);
  if (kind == "ba") return GenerateBarabasiAlbert(130, 4, seed);
  if (kind == "rmat") return GenerateRMat(7, 600, seed);
  if (kind == "sbm") {
    return GenerateStochasticBlockModel(120, 4, 0.2, 0.01, seed);
  }
  if (kind == "ws") return GenerateWattsStrogatz(120, 6, 0.2, seed);
  if (kind == "cycle") return GenerateCycle(64);
  if (kind == "grid") return GenerateGrid(10, 12);
  return Status::InvalidArgument("unknown topology " + kind);
}

class EngineInvariantsTest
    : public ::testing::TestWithParam<std::tuple<std::string, double>> {};

TEST_P(EngineInvariantsTest, ScoresAreValidProbabilities) {
  const auto& [kind, epsilon] = GetParam();
  auto graph = BuildTopology(kind, 7);
  ASSERT_TRUE(graph.ok());
  SimPushOptions options;
  options.epsilon = epsilon;
  options.walk_budget_cap = 3000;
  SimPushEngine engine(*graph, options);
  for (NodeId u : {NodeId{0}, NodeId(graph->num_nodes() / 2)}) {
    auto result = engine.Query(u);
    ASSERT_TRUE(result.ok());
    EXPECT_DOUBLE_EQ(result->scores[u], 1.0);
    for (NodeId v = 0; v < graph->num_nodes(); ++v) {
      EXPECT_GE(result->scores[v], 0.0) << kind << " node " << v;
      EXPECT_LE(result->scores[v], 1.0 + 1e-9) << kind << " node " << v;
      EXPECT_TRUE(std::isfinite(result->scores[v]));
    }
  }
}

TEST_P(EngineInvariantsTest, EstimateIsOneSidedAndWithinEpsilon) {
  const auto& [kind, epsilon] = GetParam();
  auto graph = BuildTopology(kind, 11);
  ASSERT_TRUE(graph.ok());
  PowerMethodOptions pm;
  auto exact = ComputeExactSimRank(*graph, pm);
  ASSERT_TRUE(exact.ok());

  SimPushOptions options;
  options.epsilon = epsilon;
  options.walk_budget_cap = 3000;
  SimPushEngine engine(*graph, options);
  const NodeId u = graph->num_nodes() / 3;
  auto result = engine.Query(u);
  ASSERT_TRUE(result.ok());
  for (NodeId v = 0; v < graph->num_nodes(); ++v) {
    if (v == u) continue;
    const double truth = (*exact)(u, v);
    // Lemma 4: one-sided underestimate, deficit at most ε. Small slack
    // for the power method's own convergence tolerance and FP noise.
    EXPECT_LE(result->scores[v], truth + 1e-6)
        << kind << " eps=" << epsilon << " pair (" << u << "," << v << ")";
    EXPECT_GE(result->scores[v], truth - epsilon - 1e-6)
        << kind << " eps=" << epsilon << " pair (" << u << "," << v << ")";
  }
}

TEST_P(EngineInvariantsTest, QueriesAreDeterministicInSeed) {
  const auto& [kind, epsilon] = GetParam();
  auto graph = BuildTopology(kind, 13);
  ASSERT_TRUE(graph.ok());
  SimPushOptions options;
  options.epsilon = epsilon;
  options.walk_budget_cap = 3000;
  options.seed = 12345;
  SimPushEngine a(*graph, options);
  SimPushEngine b(*graph, options);
  auto ra = a.Query(1);
  auto rb = b.Query(1);
  ASSERT_TRUE(ra.ok() && rb.ok());
  for (NodeId v = 0; v < graph->num_nodes(); ++v) {
    ASSERT_DOUBLE_EQ(ra->scores[v], rb->scores[v]);
  }
}

INSTANTIATE_TEST_SUITE_P(
    TopologyEpsilonSweep, EngineInvariantsTest,
    ::testing::Combine(::testing::Values("er", "chunglu", "ba", "rmat",
                                         "sbm", "ws", "cycle", "grid"),
                       ::testing::Values(0.05, 0.02)),
    [](const auto& info) {
      return std::get<0>(info.param) +
             (std::get<1>(info.param) == 0.05 ? "_eps05" : "_eps02");
    });

class ExactSimRankPropertyTest
    : public ::testing::TestWithParam<std::string> {};

TEST_P(ExactSimRankPropertyTest, MatrixIsSymmetricWithUnitDiagonal) {
  auto graph = BuildTopology(GetParam(), 17);
  ASSERT_TRUE(graph.ok());
  PowerMethodOptions pm;
  auto exact = ComputeExactSimRank(*graph, pm);
  ASSERT_TRUE(exact.ok());
  for (NodeId u = 0; u < graph->num_nodes(); ++u) {
    EXPECT_DOUBLE_EQ((*exact)(u, u), 1.0);
    for (NodeId v = u + 1; v < graph->num_nodes(); ++v) {
      EXPECT_NEAR((*exact)(u, v), (*exact)(v, u), 1e-12);
      EXPECT_GE((*exact)(u, v), 0.0);
      EXPECT_LE((*exact)(u, v), 1.0);
    }
  }
}

TEST_P(ExactSimRankPropertyTest, DecayMonotonicity) {
  // Raising c can only increase every off-diagonal SimRank value
  // (each term of the meeting-sum carries a higher weight).
  auto graph = BuildTopology(GetParam(), 19);
  ASSERT_TRUE(graph.ok());
  PowerMethodOptions low, high;
  low.decay = 0.4;
  high.decay = 0.8;
  auto s_low = ComputeExactSimRank(*graph, low);
  auto s_high = ComputeExactSimRank(*graph, high);
  ASSERT_TRUE(s_low.ok() && s_high.ok());
  for (NodeId u = 0; u < graph->num_nodes(); ++u) {
    for (NodeId v = u + 1; v < graph->num_nodes(); ++v) {
      EXPECT_GE((*s_high)(u, v), (*s_low)(u, v) - 1e-9)
          << "pair (" << u << "," << v << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Topologies, ExactSimRankPropertyTest,
                         ::testing::Values("er", "chunglu", "sbm", "cycle",
                                           "grid"));

}  // namespace
}  // namespace simpush
