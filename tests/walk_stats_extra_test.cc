// Deeper statistical tests for the √c-walk engine: walk-length law,
// batched-kernel-vs-exact hitting probability agreement, and pair-meeting
// probability as a SimRank estimator on analytic topologies.

#include <cmath>
#include <cstdint>
#include <vector>

#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "gtest/gtest.h"
#include "reference/exact_hitting.h"
#include "reference/graphs.h"
#include "walk/walk_batch.h"
#include "walk/walker.h"

namespace simpush {
namespace {

TEST(WalkLawTest, LengthIsGeometricOnInfiniteInDegreeGraph) {
  // On a complete graph every step has an in-neighbor, so walk length
  // is purely the decay law: P(length >= l) = √c^l. Chi-square-lite:
  // check the survival curve at a few depths within 4σ binomial bands.
  auto complete = GenerateComplete(50);
  ASSERT_TRUE(complete.ok());
  const double sqrt_c = std::sqrt(0.6);
  Walker walker(*complete, sqrt_c);
  Rng rng(17);
  const uint64_t kWalks = 100000;
  std::vector<uint64_t> survived(8, 0);
  for (uint64_t i = 0; i < kWalks; ++i) {
    Walk walk = walker.SampleWalk(3, &rng);
    for (size_t l = 1; l <= walk.length() && l <= 7; ++l) ++survived[l];
  }
  for (size_t l = 1; l <= 7; ++l) {
    const double expected = std::pow(sqrt_c, l);
    const double observed = double(survived[l]) / kWalks;
    const double sigma = std::sqrt(expected * (1 - expected) / kWalks);
    EXPECT_NEAR(observed, expected, 4 * sigma + 1e-6) << "depth " << l;
  }
}

TEST(WalkLawTest, DanglingNodeAlwaysStops) {
  // Star: the hub (node 0) has in-neighbors; spokes have none. A walk
  // from the hub makes at most one step (to a spoke, which dangles).
  auto star = GenerateStar(10);
  ASSERT_TRUE(star.ok());
  Walker walker(*star, std::sqrt(0.6));
  Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    Walk walk = walker.SampleWalk(0, &rng);
    ASSERT_LE(walk.length(), 1u);
    if (walk.length() == 1) {
      EXPECT_NE(walk.positions[1], 0u) << "hub's in-neighbors are spokes";
    }
  }
}

TEST(WalkStatsTest, KernelVisitsMatchExactHittingProbabilities) {
  auto graph = GenerateChungLu(300, 2400, 2.4, 23);
  ASSERT_TRUE(graph.ok());
  const double sqrt_c = std::sqrt(0.6);
  const NodeId u = 7;
  const uint32_t kMaxLevel = 4;

  auto exact = ExactHittingProbabilities(*graph, u, kMaxLevel, sqrt_c);
  // Tally the batched kernel Source-Push runs, per (level, node).
  const Walker walker(*graph, sqrt_c);
  const uint64_t kWalks = 200000;
  std::vector<std::vector<uint64_t>> counts(
      kMaxLevel + 1, std::vector<uint64_t>(graph->num_nodes(), 0));
  RunWalkWaves(*graph, u, /*walk_seed=*/31, kWalks, Walker::kMaxWalkLength,
               walker.inv_log_sqrt_c(), [&](uint32_t level, NodeId node) {
                 if (level <= kMaxLevel) ++counts[level][node];
               });

  // Every node with h >= 0.01 at levels 1..3 must be estimated within
  // 5σ of its exact probability.
  for (uint32_t level = 1; level <= 3; ++level) {
    for (NodeId v = 0; v < graph->num_nodes(); ++v) {
      const double h = exact[level][v];
      if (h < 0.01) continue;
      const double estimate = double(counts[level][v]) / kWalks;
      const double sigma = std::sqrt(h * (1 - h) / kWalks);
      EXPECT_NEAR(estimate, h, 5 * sigma + 1e-4)
          << "level " << level << " node " << v;
    }
  }
}

TEST(WalkStatsTest, ExactHittingLevelMassBound) {
  // Σ_v h^(l)(u, v) <= √c^l with equality iff no walk died earlier.
  auto graph = GenerateChungLu(500, 3000, 2.5, 29);
  ASSERT_TRUE(graph.ok());
  const double sqrt_c = std::sqrt(0.6);
  auto exact = ExactHittingProbabilities(*graph, 11, 6, sqrt_c);
  double previous_ratio = 1.0;
  for (uint32_t level = 1; level <= 6; ++level) {
    double mass = 0;
    for (double h : exact[level]) mass += h;
    const double cap = std::pow(sqrt_c, level);
    EXPECT_LE(mass, cap + 1e-12) << "level " << level;
    // Mass ratio to the cap can only shrink as walks die.
    const double ratio = mass / cap;
    EXPECT_LE(ratio, previous_ratio + 1e-12);
    previous_ratio = ratio;
  }
}

TEST(PairMeetingTest, EstimatesAnalyticStarSimRank) {
  // Bidirectional star: s(spoke_a, spoke_b) = c exactly.
  auto star = GenerateStar(20, /*bidirectional=*/true);
  ASSERT_TRUE(star.ok());
  Walker walker(*star, std::sqrt(0.6));
  Rng rng(41);
  const uint64_t kTrials = 200000;
  uint64_t meets = 0;
  for (uint64_t i = 0; i < kTrials; ++i) {
    if (walker.PairWalkMeets(3, 9, &rng)) ++meets;
  }
  const double estimate = double(meets) / kTrials;
  const double sigma = std::sqrt(0.6 * 0.4 / kTrials);
  EXPECT_NEAR(estimate, 0.6, 5 * sigma);
}

TEST(PairMeetingTest, DisconnectedComponentsNeverMeet) {
  GraphBuilder builder(10);
  for (NodeId v = 0; v < 5; ++v) builder.AddEdge(v, (v + 1) % 5);
  for (NodeId v = 5; v < 10; ++v) builder.AddEdge(v, 5 + (v + 1 - 5) % 5);
  auto graph = std::move(builder).Build();
  ASSERT_TRUE(graph.ok());
  Walker walker(*graph, std::sqrt(0.6));
  Rng rng(43);
  for (int i = 0; i < 10000; ++i) {
    ASSERT_FALSE(walker.PairWalkMeets(1, 7, &rng));
  }
}

}  // namespace
}  // namespace simpush
