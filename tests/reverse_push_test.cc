// Tests for Reverse-Push (Algorithm 5): mass conservation, threshold
// behaviour, combined-residue semantics, workspace reuse, cancellation.

#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/deadline.h"
#include "gtest/gtest.h"
#include "simpush/hitting.h"
#include "simpush/last_meeting.h"
#include "simpush/options.h"
#include "simpush/reverse_push.h"
#include "simpush/source_push.h"
#include "simpush/workspace.h"
#include "test_util.h"

namespace simpush {
namespace {

struct Fixture {
  Graph graph;
  SourceGraph gu;
  DerivedParams params;
  std::vector<double> gamma;
};

Fixture MakeFixture(const Graph& graph, NodeId u, double eps,
                    uint64_t seed = 1) {
  Fixture f{graph, {}, {}, {}};
  SimPushOptions options;
  options.epsilon = eps;
  options.use_level_detection = false;
  f.params = ComputeDerivedParams(options);
  Rng rng(seed);
  QueryWorkspace workspace;
  HittingTable table;
  EXPECT_TRUE(SourcePushInto(f.graph, u, options, f.params, &rng, &workspace,
                             &f.gu, nullptr)
                  .ok());
  EXPECT_TRUE(ComputeHittingTable(f.graph, f.gu, f.params.sqrt_c, &workspace,
                                  &table)
                  .ok());
  EXPECT_TRUE(
      ComputeLastMeetingProbabilities(f.gu, table, &workspace, &f.gamma)
          .ok());
  return f;
}

TEST(ReversePushTest, ScoresNonNegativeAndBounded) {
  Graph g = testing_util::RandomGraph(120, 900, 111);
  Fixture f = MakeFixture(g, 3, 0.05, 111);
  QueryWorkspace workspace;
  std::vector<double> scores(g.num_nodes(), 0.0);
  ReversePushStats stats;
  ASSERT_TRUE(ReversePush(f.graph, f.gu, f.gamma, f.params.sqrt_c, f.params.eps_h,
              &workspace, &scores, &stats).ok());
  for (double s : scores) {
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0 + 1e-9);
  }
  EXPECT_GT(stats.pushes, 0u);
  EXPECT_GT(stats.edges_traversed, 0u);
}

TEST(ReversePushTest, ZeroEpsHThresholdConservesResidueMass) {
  // With ε_h = 0 nothing is dropped: the total delivered score mass plus
  // mass lost at sink nodes equals the total pushed residue scaled by
  // the per-level √c factors. We check the weaker but exact invariant
  // that pushing a single unit residue from an attention node at level 1
  // delivers exactly √c (no sinks on the fixture's relevant nodes).
  Graph g = testing_util::MakeFixtureGraph();
  SourceGraph gu;
  gu.set_max_level(1);
  gu.AddEntry(0, 0);
  // Node 9 has out-neighbors {5, 6} in the fixture graph.
  gu.AddEntry(1, 9);
  gu.AddAttentionNode(9, 1, 1.0);
  std::vector<double> gamma{1.0};
  QueryWorkspace workspace;
  std::vector<double> scores(g.num_nodes(), 0.0);
  const double sqrt_c = std::sqrt(0.6);
  ASSERT_TRUE(ReversePush(g, gu, gamma, sqrt_c, /*eps_h=*/0.0, &workspace, &scores,
              nullptr).ok());
  // Node 5 (d_I = 2) and node 6 (d_I = 2) each get √c/2.
  EXPECT_NEAR(scores[5], sqrt_c / g.InDegree(5), 1e-12);
  EXPECT_NEAR(scores[6], sqrt_c / g.InDegree(6), 1e-12);
  double total = 0;
  for (double s : scores) total += s;
  EXPECT_NEAR(total, sqrt_c / g.InDegree(5) + sqrt_c / g.InDegree(6), 1e-12);
}

TEST(ReversePushTest, HighThresholdDropsEverything) {
  Graph g = testing_util::RandomGraph(60, 400, 113);
  Fixture f = MakeFixture(g, 2, 0.05, 113);
  QueryWorkspace workspace;
  std::vector<double> scores(g.num_nodes(), 0.0);
  ReversePushStats stats;
  ASSERT_TRUE(ReversePush(f.graph, f.gu, f.gamma, f.params.sqrt_c, /*eps_h=*/10.0,
              &workspace, &scores, &stats).ok());
  EXPECT_EQ(stats.pushes, 0u);
  for (double s : scores) EXPECT_EQ(s, 0.0);
}

TEST(ReversePushTest, TwoLevelResidueCombination) {
  // Two attention nodes on a path: the level-2 residue flows through
  // the level-1 node and must combine with its own residue before the
  // final push (§4.3).
  //   Graph: 2 -> 1 -> 0,   also 2 -> 0 so InDegree(0)=2.
  Graph g = testing_util::MakeGraph(3, {{2, 1}, {1, 0}, {2, 0}});
  SourceGraph gu;
  gu.set_max_level(2);
  gu.AddEntry(0, 0);
  gu.AddEntry(1, 1);
  gu.AddEntry(2, 2);
  gu.AddAttentionNode(1, 1, 0.5);
  gu.AddAttentionNode(2, 2, 0.4);
  std::vector<double> gamma{1.0, 1.0};
  const double sqrt_c = std::sqrt(0.6);
  QueryWorkspace workspace;
  std::vector<double> scores(g.num_nodes(), 0.0);
  ASSERT_TRUE(ReversePush(g, gu, gamma, sqrt_c, /*eps_h=*/0.0, &workspace, &scores,
              nullptr).ok());
  // Level 2: residue 0.4 at node 2 pushes to out-neighbors {0, 1}:
  //   node 1 (d_I=1): += √c·0.4 ; node 0 (d_I=2): +=  √c·0.4/2 but node 0
  //   is at level 1 -> becomes residue, not score.
  // Level 1: node 1 residue = 0.5 + √c·0.4 pushes to 0 (d_I=2):
  //   score[0] += √c·(0.5 + √c·0.4)/2 ; node 0 residue √c·0.2 pushes to
  //   its out-neighbors — node 0 has none, mass lost (sink).
  const double expected0 = sqrt_c * (0.5 + sqrt_c * 0.4) / 2.0;
  EXPECT_NEAR(scores[0], expected0, 1e-12);
}

TEST(ReversePushTest, WorkspaceReuseIsClean) {
  Graph g = testing_util::RandomGraph(100, 800, 117);
  Fixture f = MakeFixture(g, 4, 0.05, 117);
  QueryWorkspace workspace;
  std::vector<double> first(g.num_nodes(), 0.0);
  ASSERT_TRUE(ReversePush(f.graph, f.gu, f.gamma, f.params.sqrt_c, f.params.eps_h,
              &workspace, &first, nullptr).ok());
  std::vector<double> second(g.num_nodes(), 0.0);
  ASSERT_TRUE(ReversePush(f.graph, f.gu, f.gamma, f.params.sqrt_c, f.params.eps_h,
              &workspace, &second, nullptr).ok());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_DOUBLE_EQ(first[v], second[v]) << "node " << v;
  }
}

TEST(ReversePushTest, GammaScalesContributions) {
  Graph g = testing_util::MakeGraph(3, {{2, 1}, {1, 0}, {2, 0}});
  SourceGraph gu;
  gu.set_max_level(1);
  gu.AddEntry(0, 0);
  gu.AddEntry(1, 1);
  gu.AddAttentionNode(1, 1, 0.8);
  const double sqrt_c = std::sqrt(0.6);
  QueryWorkspace workspace;

  std::vector<double> full(g.num_nodes(), 0.0);
  std::vector<double> gamma_full{1.0};
  ASSERT_TRUE(ReversePush(g, gu, gamma_full, sqrt_c, 0.0, &workspace, &full, nullptr).ok());

  std::vector<double> half(g.num_nodes(), 0.0);
  std::vector<double> gamma_half{0.5};
  ASSERT_TRUE(ReversePush(g, gu, gamma_half, sqrt_c, 0.0, &workspace, &half, nullptr).ok());

  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_NEAR(half[v], full[v] * 0.5, 1e-12);
  }
}

TEST(ReversePushTest, CancelLeavesWorkspaceClean) {
  // 300 attention nodes 1..300 on level 2, each with out-edges to its
  // own level-1 node 300 + i and to node 0; every level-1 node points
  // to node 0. The first poll of a cancelled token lands on the 256th
  // pushed node of level 2, with level 2's residues half consumed and
  // level 1's half accumulated.
  constexpr NodeId kWide = 300;
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId i = 1; i <= kWide; ++i) {
    edges.emplace_back(i, kWide + i);
    edges.emplace_back(i, 0);
    edges.emplace_back(kWide + i, 0);
  }
  Graph g = testing_util::MakeGraph(2 * kWide + 1, edges);
  SourceGraph gu;
  gu.set_max_level(2);
  gu.AddEntry(0, 0);
  std::vector<double> gamma;
  for (NodeId i = 1; i <= kWide; ++i) {
    const double h = 0.5 + 1e-3 * i;
    gu.AddEntry(2, i);
    gu.AddAttentionNode(i, 2, h);
    gamma.push_back(1.0 - 1e-3 * i);
  }
  const double sqrt_c = std::sqrt(0.6);
  const double eps_h = 1e-4;
  QueryWorkspace workspace;
  std::vector<double> partial(g.num_nodes(), 0.0);
  CancelToken token;
  token.Cancel();
  EXPECT_EQ(ReversePush(g, gu, gamma, sqrt_c, eps_h, &workspace, &partial,
                        nullptr, &token)
                .code(),
            StatusCode::kCancelled);

  // The same push again, on the reused and on a fresh workspace.
  std::vector<double> after(g.num_nodes(), 0.0);
  std::vector<double> fresh(g.num_nodes(), 0.0);
  QueryWorkspace fresh_workspace;
  ReversePushStats after_stats, fresh_stats;
  ASSERT_TRUE(ReversePush(g, gu, gamma, sqrt_c, eps_h, &workspace, &after,
                          &after_stats)
                  .ok());
  ASSERT_TRUE(ReversePush(g, gu, gamma, sqrt_c, eps_h, &fresh_workspace,
                          &fresh, &fresh_stats)
                  .ok());
  EXPECT_EQ(fresh_stats.pushes, 2 * kWide + 1);  // Node 0 as well.
  EXPECT_EQ(after_stats.pushes, fresh_stats.pushes);
  EXPECT_EQ(after_stats.edges_traversed, fresh_stats.edges_traversed);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(std::bit_cast<uint64_t>(after[v]),
              std::bit_cast<uint64_t>(fresh[v]))
        << "node " << v;
  }
}

}  // namespace
}  // namespace simpush
