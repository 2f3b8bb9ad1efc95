// Tests for the √c-walk engine: stopping law, transition correctness,
// Monte-Carlo agreement with exact hitting probabilities, and the
// paired-walk meeting estimator.

#include <cmath>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "common/deadline.h"
#include "graph/generators.h"
#include "gtest/gtest.h"
#include "reference/exact_hitting.h"
#include "reference/graphs.h"
#include "test_util.h"
#include "walk/walk_batch.h"
#include "walk/walker.h"

namespace simpush {
namespace {

constexpr double kSqrtC = 0.7745966692414834;  // sqrt(0.6)

TEST(WalkerTest, DanglingNodeStopsImmediately) {
  Graph g = testing_util::MakeGraph(2, {{0, 1}});  // node 0 has no in-edges
  Walker walker(g, kSqrtC);
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    Walk walk = walker.SampleWalk(0, &rng);
    EXPECT_EQ(walk.length(), 0u);
  }
}

TEST(WalkerTest, StepGoesToInNeighbor) {
  Graph g = testing_util::MakeGraph(3, {{1, 0}, {2, 0}});
  Walker walker(g, kSqrtC);
  Rng rng(2);
  for (int i = 0; i < 200; ++i) {
    NodeId next = walker.Step(0, &rng);
    if (next != kInvalidNode) {
      EXPECT_TRUE(next == 1 || next == 2);
    }
  }
}

TEST(WalkerTest, WalkLengthIsGeometric) {
  // On a cycle every node has an in-neighbor, so length ~ Geometric(1-√c):
  // E[len] = √c/(1-√c) ≈ 3.436 for c = 0.6.
  auto g = GenerateCycle(10);
  ASSERT_TRUE(g.ok());
  Walker walker(*g, kSqrtC);
  Rng rng(3);
  double total = 0;
  const int trials = 200000;
  for (int i = 0; i < trials; ++i) {
    total += double(walker.SampleWalk(0, &rng).length());
  }
  EXPECT_NEAR(total / trials, kSqrtC / (1 - kSqrtC), 0.05);
}

TEST(WalkerTest, UniformInNeighborChoice) {
  Graph g = testing_util::MakeGraph(4, {{1, 0}, {2, 0}, {3, 0}});
  Walker walker(g, kSqrtC);
  Rng rng(5);
  int counts[4] = {0, 0, 0, 0};
  int steps = 0;
  for (int i = 0; i < 300000 && steps < 100000; ++i) {
    NodeId next = walker.Step(0, &rng);
    if (next != kInvalidNode) {
      ++counts[next];
      ++steps;
    }
  }
  for (NodeId v = 1; v <= 3; ++v) {
    EXPECT_NEAR(counts[v] / double(steps), 1.0 / 3.0, 0.01);
  }
}

TEST(WalkerTest, VisitCallbackMatchesSampleWalk) {
  Graph g = testing_util::MakeFixtureGraph();
  Walker walker(g, kSqrtC);
  Rng rng_a(7);
  Rng rng_b(7);
  for (int i = 0; i < 50; ++i) {
    Walk walk = walker.SampleWalk(3, &rng_a);
    std::vector<NodeId> visited;
    walker.SampleWalkVisit(3, &rng_b, [&visited](uint32_t step, NodeId node) {
      EXPECT_EQ(step, visited.size() + 1);
      visited.push_back(node);
    });
    ASSERT_EQ(visited.size(), walk.length());
    for (size_t s = 0; s < visited.size(); ++s) {
      EXPECT_EQ(visited[s], walk.positions[s + 1]);
    }
  }
}

TEST(WalkStatsTest, ExactHittingProbsSumToSqrtCPowers) {
  Graph g = testing_util::MakeFixtureGraph();
  auto h = ExactHittingProbabilities(g, 0, 4, kSqrtC);
  // At level l, total mass <= √c^l (equality iff no walk died at a
  // dangling node before step l).
  for (uint32_t level = 0; level <= 4; ++level) {
    double total = 0;
    for (double p : h[level]) total += p;
    EXPECT_LE(total, std::pow(kSqrtC, level) + 1e-12);
    EXPECT_GE(total, 0.0);
  }
  EXPECT_DOUBLE_EQ(h[0][0], 1.0);
}

TEST(WalkerTest, WalkLengthForUniformCapAndInfinityEdge) {
  const double inv = 1.0 / std::log(kSqrtC);
  // u = 0 → survival 1 → log 0 → length 0.
  EXPECT_EQ(WalkLengthForUniform(0.0, inv, Walker::kMaxWalkLength), 0u);
  // survival == 0 → log(-inf) → length +inf: !(inf < cap) must clamp
  // to the cap instead of wrapping through the uint32 cast (UB).
  EXPECT_EQ(WalkLengthForUniform(1.0, inv, Walker::kMaxWalkLength),
            Walker::kMaxWalkLength);
  // Just below 1: a huge-but-finite length still clamps at the cap.
  EXPECT_EQ(WalkLengthForUniform(std::nextafter(1.0, 0.0), inv, 16), 16u);
  // A zero cap forces length 0 for every u, including the inf edge.
  EXPECT_EQ(WalkLengthForUniform(1.0, inv, 0), 0u);
  EXPECT_EQ(WalkLengthForUniform(0.5, inv, 0), 0u);
  // SampleWalkLength is the same mapping applied to rng draws.
  Graph g = testing_util::MakeFixtureGraph();
  Walker walker(g, kSqrtC);
  Rng rng_a(17), rng_b(17);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(walker.SampleWalkLength(&rng_a),
              WalkLengthForUniform(rng_b.NextDouble(), inv,
                                   Walker::kMaxWalkLength));
  }
}

// Tally of (level, node) visit counts — the order-insensitive digest the
// kernel equivalence tests compare on.
using LevelCounts = std::map<std::pair<uint32_t, NodeId>, uint64_t>;

LevelCounts KernelCounts(const Graph& g, NodeId start, uint64_t walk_seed,
                         uint64_t num_walks, uint32_t wave_size,
                         const CancelToken* cancel = nullptr) {
  const Walker walker(g, kSqrtC);
  LevelCounts counts;
  RunWalkWaves(
      g, start, walk_seed, num_walks, Walker::kMaxWalkLength,
      walker.inv_log_sqrt_c(),
      [&](uint32_t level, NodeId node) { ++counts[{level, node}]; },
      cancel, wave_size);
  return counts;
}

TEST(WalkStatsTest, MonteCarloMatchesExactHitting) {
  // The kernel Source-Push runs, tallied per (level, node), estimates
  // the exact hitting probabilities.
  Graph g = testing_util::MakeFixtureGraph();
  const uint64_t walks = 400000;
  const LevelCounts counts =
      KernelCounts(g, 0, /*walk_seed=*/11, walks, kDefaultWalkWaveSize);
  auto exact = ExactHittingProbabilities(g, 0, 3, kSqrtC);
  for (uint32_t level = 1; level <= 3; ++level) {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      const auto it = counts.find({level, v});
      const uint64_t visits = it == counts.end() ? 0 : it->second;
      const double estimated = double(visits) / walks;
      EXPECT_NEAR(estimated, exact[level][v], 0.005)
          << "level " << level << " node " << v;
    }
  }
}

TEST(WalkBatchTest, KernelMatchesSerialWalkerPerStream) {
  // The batched kernel over counter streams must visit exactly what the
  // serial Walker visits when handed the same per-walk streams: the
  // wave is a scheduling detail, not an algorithm change.
  auto graph = GenerateChungLu(500, 3000, 2.3, 101);
  ASSERT_TRUE(graph.ok());
  const Walker walker(*graph, kSqrtC);
  const uint64_t walk_seed = 0xDEADBEEFCAFEF00DULL;
  const NodeId start = 3;
  const uint64_t num_walks = 2000;

  LevelCounts serial;
  for (uint64_t i = 0; i < num_walks; ++i) {
    Rng rng = Rng::ForWalk(walk_seed, start, i);
    walker.SampleWalkVisit(start, &rng, [&](uint32_t level, NodeId node) {
      ++serial[{level, node}];
    });
  }
  for (uint32_t wave : {1u, 8u, 64u, 256u}) {
    EXPECT_EQ(serial, KernelCounts(*graph, start, walk_seed, num_walks, wave))
        << "wave " << wave;
  }
}

TEST(WalkBatchTest, WaveSizeIsInvisibleAndUnfiredTokenToo) {
  auto graph = GenerateChungLu(400, 2400, 2.4, 103);
  ASSERT_TRUE(graph.ok());
  const auto baseline = KernelCounts(*graph, 0, 7, 3000, 1);
  // Any wave size (including an over-cap request, clamped) agrees.
  for (uint32_t wave : {2u, 8u, 64u, 128u, 256u, 100000u}) {
    EXPECT_EQ(baseline, KernelCounts(*graph, 0, 7, 3000, wave));
  }
  // An installed-but-unfired token is bit-invisible mid-batch.
  const CancelToken token(Deadline::After(600000));
  EXPECT_EQ(baseline,
            KernelCounts(*graph, 0, 7, 3000, kDefaultWalkWaveSize, &token));
  EXPECT_FALSE(token.cancelled());
}

TEST(WalkBatchTest, FiredTokenStopsAtWaveBoundary) {
  auto graph = GenerateChungLu(400, 2400, 2.4, 105);
  ASSERT_TRUE(graph.ok());
  const Walker walker(*graph, kSqrtC);
  CancelToken token;
  token.Cancel();
  uint64_t visits = 0;
  const uint64_t done = RunWalkWaves(
      *graph, 0, 7, 3000, Walker::kMaxWalkLength, walker.inv_log_sqrt_c(),
      [&](uint32_t, NodeId) { ++visits; }, &token, 64);
  // The pre-fired token is seen at the very first poll: no walk runs.
  EXPECT_EQ(done, 0u);
  EXPECT_EQ(visits, 0u);
  // Without a token the kernel reports every walk completed.
  EXPECT_EQ(RunWalkWaves(*graph, 0, 7, 3000, Walker::kMaxWalkLength,
                         walker.inv_log_sqrt_c(), [](uint32_t, NodeId) {},
                         nullptr, 64),
            3000u);
}

TEST(WalkBatchTest, UniformPickDrawsOncePerStep) {
  // The determinism contract requires a fixed RNG draw count per step:
  // the kernel's uniform in-neighbor pick draws exactly once.
  for (uint64_t seed = 0; seed < 50; ++seed) {
    Rng a(seed), b(seed);
    a.NextBounded(3);
    b.Next();
    EXPECT_EQ(a.Next(), b.Next()) << "uniform must draw exactly once";
  }
}

TEST(WalkerTest, PairMeetingMatchesExactSimRank) {
  // Validates the core identity s(u,v) = Pr[paired √c-walks meet]
  // against the power method on the fixture graph.
  Graph g = testing_util::MakeFixtureGraph();
  SimRankMatrix exact = testing_util::ExactSimRank(g);
  Walker walker(g, kSqrtC);
  Rng rng(13);
  const uint64_t trials = 300000;
  const NodeId u = 1, v = 2;
  uint64_t meets = 0;
  for (uint64_t i = 0; i < trials; ++i) {
    if (walker.PairWalkMeets(u, v, &rng)) ++meets;
  }
  EXPECT_NEAR(double(meets) / trials, exact(u, v), 0.005);
}

}  // namespace
}  // namespace simpush
