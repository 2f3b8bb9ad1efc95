// Tests for the single-pair SimRank session (s(u,v) via source-side
// attention machinery + Monte-Carlo target walks).

#include "reference/graphs.h"
#include "simpush/single_pair.h"

#include <cmath>
#include <thread>
#include <vector>

#include "graph/graph_builder.h"

#include "exact/power_method.h"
#include "graph/generators.h"
#include "gtest/gtest.h"
#include "simpush/simpush.h"

namespace simpush {
namespace {

SimPushOptions TestOptions(double epsilon = 0.02) {
  SimPushOptions options;
  options.epsilon = epsilon;
  options.walk_budget_cap = 20000;
  options.seed = 1234;
  return options;
}

TEST(SinglePairTest, IdenticalNodesScoreOne) {
  auto graph = GenerateErdosRenyi(50, 300, 3);
  ASSERT_TRUE(graph.ok());
  auto session = SinglePairSession::Create(*graph, 7, TestOptions());
  ASSERT_TRUE(session.ok());
  auto result = session->Estimate(7);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->score, 1.0);
}

TEST(SinglePairTest, RejectsOutOfRangeNodes) {
  auto graph = GenerateErdosRenyi(20, 80, 3);
  ASSERT_TRUE(graph.ok());
  EXPECT_FALSE(SinglePairSession::Create(*graph, 20, TestOptions()).ok());
  auto session = SinglePairSession::Create(*graph, 0, TestOptions());
  ASSERT_TRUE(session.ok());
  EXPECT_FALSE(session->Estimate(99).ok());
}

TEST(SinglePairTest, RejectsInvalidOptions) {
  auto graph = GenerateErdosRenyi(20, 80, 3);
  ASSERT_TRUE(graph.ok());
  SimPushOptions bad = TestOptions();
  bad.epsilon = -1;
  EXPECT_FALSE(SinglePairSession::Create(*graph, 0, bad).ok());
}

TEST(SinglePairTest, MatchesExactSimRankOnSmallGraph) {
  // Exact ground truth from the power method; pair estimates must land
  // within ε plus MC noise.
  auto graph = GenerateErdosRenyi(60, 420, 11);
  ASSERT_TRUE(graph.ok());
  PowerMethodOptions pm_options;
  pm_options.decay = 0.6;
  auto exact = ComputeExactSimRank(*graph, pm_options);
  ASSERT_TRUE(exact.ok());

  const NodeId u = 5;
  auto session = SinglePairSession::Create(*graph, u, TestOptions(0.02));
  ASSERT_TRUE(session.ok());
  for (NodeId v : {1u, 9u, 23u, 42u, 59u}) {
    auto result = session->Estimate(v, 40000);
    ASSERT_TRUE(result.ok());
    const double truth = (*exact)(u, v);
    EXPECT_NEAR(result->score, truth, 0.03)
        << "pair (" << u << ", " << v << ")";
    EXPECT_LE(result->score, truth + 0.03) << "estimator never overshoots s";
  }
}

TEST(SinglePairTest, AgreesWithFullSingleSourceQuery) {
  // The pair estimator targets the same s⁺ as the full engine; on a
  // midsize graph the two must agree within combined error.
  auto graph = GenerateChungLu(500, 3000, 2.5, 7);
  ASSERT_TRUE(graph.ok());
  const NodeId u = 17;

  SimPushEngine engine(*graph, TestOptions(0.02));
  auto full = engine.Query(u);
  ASSERT_TRUE(full.ok());

  auto session = SinglePairSession::Create(*graph, u, TestOptions(0.02));
  ASSERT_TRUE(session.ok());
  for (NodeId v = 0; v < 20; ++v) {
    if (v == u) continue;
    auto pair = session->Estimate(v, 30000);
    ASSERT_TRUE(pair.ok());
    EXPECT_NEAR(pair->score, full->scores[v], 0.03) << "node " << v;
  }
}

TEST(SinglePairTest, SessionReuseAcrossManyTargets) {
  auto graph = GenerateBarabasiAlbert(300, 4, 13);
  ASSERT_TRUE(graph.ok());
  auto session = SinglePairSession::Create(*graph, 0, TestOptions());
  ASSERT_TRUE(session.ok());
  // All estimates finite, in [0, 1], and the default walk budget engages.
  for (NodeId v = 1; v < 50; ++v) {
    auto result = session->Estimate(v);
    ASSERT_TRUE(result.ok());
    EXPECT_GE(result->score, 0.0);
    EXPECT_LE(result->score, 1.0);
    EXPECT_EQ(result->walks_used, session->default_walks());
  }
}

TEST(SinglePairTest, StarSpokesAnalytic) {
  // Bidirectional star: every spoke's only in-neighbor is the hub, so
  // s(spoke_a, spoke_b) = c·s(hub, hub) = c = 0.6 exactly.
  auto star = GenerateStar(12, /*bidirectional=*/true);
  ASSERT_TRUE(star.ok());
  SimPushOptions options = TestOptions(0.01);
  auto session = SinglePairSession::Create(*star, 3, options);
  ASSERT_TRUE(session.ok());
  auto result = session->Estimate(7, 60000);
  ASSERT_TRUE(result.ok());
  // s(spoke, spoke) for a bidirectional star: both walks must step to
  // the hub and meet there; s = c (decay 0.6) with higher-order terms
  // small. The estimator is one-sided (underestimates).
  EXPECT_GT(result->score, 0.45);
  EXPECT_LE(result->score, 0.62);
}

TEST(SinglePairTest, DisconnectedPairScoresZero) {
  // Two disjoint cycles: nodes in different components never meet.
  GraphBuilder builder(8);
  for (NodeId v = 0; v < 4; ++v) builder.AddEdge(v, (v + 1) % 4);
  for (NodeId v = 4; v < 8; ++v) builder.AddEdge(v, 4 + (v + 1 - 4) % 4);
  auto graph = std::move(builder).Build();
  ASSERT_TRUE(graph.ok());
  auto session = SinglePairSession::Create(*graph, 0, TestOptions(0.005));
  ASSERT_TRUE(session.ok());
  auto result = session->Estimate(5, 5000);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->score, 0.0);
}

TEST(SinglePairTest, DeterministicForFixedSeed) {
  auto graph = GenerateChungLu(300, 1500, 2.4, 3);
  ASSERT_TRUE(graph.ok());
  auto s1 = SinglePairSession::Create(*graph, 2, TestOptions());
  auto s2 = SinglePairSession::Create(*graph, 2, TestOptions());
  ASSERT_TRUE(s1.ok() && s2.ok());
  auto r1 = s1->Estimate(9, 2000);
  auto r2 = s2->Estimate(9, 2000);
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_DOUBLE_EQ(r1->score, r2->score);
}

TEST(SinglePairTest, RepeatedEstimatesReturnTheSameBits) {
  // An estimate depends only on (options, u, v, walks): repeating it,
  // or running estimates for other targets in between, cannot move it.
  auto graph = GenerateChungLu(300, 1500, 2.4, 3);
  ASSERT_TRUE(graph.ok());
  auto session = SinglePairSession::Create(*graph, 2, TestOptions());
  ASSERT_TRUE(session.ok());
  auto first = session->Estimate(9, 2000);
  auto repeated = session->Estimate(9, 2000);
  for (NodeId other : {1u, 17u, 150u}) {
    ASSERT_TRUE(session->Estimate(other, 2000).ok());
  }
  auto after_others = session->Estimate(9, 2000);
  ASSERT_TRUE(first.ok() && repeated.ok() && after_others.ok());
  EXPECT_EQ(first->score, repeated->score);
  EXPECT_EQ(first->score, after_others->score);
}

TEST(SinglePairTest, SourceSideMatchesSingleSourceQuery) {
  // The session runs the query's own stages 1-2, so L and |A_u| equal
  // the single-source query's for every source.
  auto graph = GenerateChungLu(300, 1500, 2.4, 3);
  ASSERT_TRUE(graph.ok());
  SimPushEngine engine(*graph, TestOptions());
  for (NodeId u = 0; u < graph->num_nodes(); ++u) {
    auto query = engine.Query(u);
    auto session = SinglePairSession::Create(*graph, u, TestOptions());
    ASSERT_TRUE(query.ok() && session.ok());
    EXPECT_EQ(session->max_level(), query->stats.max_level) << "node " << u;
    EXPECT_EQ(session->num_attention(), query->stats.num_attention)
        << "node " << u;
  }
}

TEST(SinglePairTest, ConcurrentEstimatesMatchSerial) {
  auto graph = GenerateChungLu(300, 1500, 2.4, 3);
  ASSERT_TRUE(graph.ok());
  auto session = SinglePairSession::Create(*graph, 2, TestOptions());
  ASSERT_TRUE(session.ok());
  constexpr NodeId kTargets = 64;
  std::vector<double> serial(kTargets);
  for (NodeId v = 0; v < kTargets; ++v) {
    auto result = session->Estimate(v, 1000);
    ASSERT_TRUE(result.ok());
    serial[v] = result->score;
  }

  constexpr size_t kThreads = 4;
  std::vector<std::vector<double>> parallel(kThreads,
                                            std::vector<double>(kTargets));
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&session, &parallel, t] {
      // Each thread walks the targets from a different offset, so the
      // estimates interleave differently on every thread.
      for (NodeId i = 0; i < kTargets; ++i) {
        const NodeId v = static_cast<NodeId>((i + 16 * t) % kTargets);
        auto result = session->Estimate(v, 1000);
        parallel[t][v] = result.ok() ? result->score : -1.0;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t t = 0; t < kThreads; ++t) {
    for (NodeId v = 0; v < kTargets; ++v) {
      EXPECT_EQ(parallel[t][v], serial[v]) << "thread " << t << " node " << v;
    }
  }
}

}  // namespace
}  // namespace simpush
