// Semantic validation of the paper's lemmas on real source graphs:
// Lemma 2's attention bounds, the level-mass identity behind it, and a
// Monte-Carlo check that Algorithm 4's γ really is the within-G_u
// never-meet-again probability of Definition 4.

#include <cmath>

#include "common/rng.h"
#include "graph/generators.h"
#include "gtest/gtest.h"
#include "reference/graphs.h"
#include "simpush/hitting.h"
#include "simpush/last_meeting.h"
#include "simpush/options.h"
#include "simpush/source_push.h"
#include "simpush/workspace.h"
#include "test_util.h"

namespace simpush {
namespace {

struct SourceRun {
  SourceGraph gu;
  DerivedParams params;
  SimPushOptions options;
};

// `every_member`: detection off and kEveryMemberAttention, so every
// member's h is an attention occurrence's (testing_util::LevelEntries).
SourceRun RunSourcePush(const Graph& graph, NodeId u, double epsilon,
                        bool every_member = false) {
  SimPushOptions options;
  options.epsilon = epsilon;
  options.walk_budget_cap = 5000;
  options.seed = 77;
  options.use_level_detection = !every_member;
  DerivedParams params = ComputeDerivedParams(options);
  if (every_member) params.eps_h = testing_util::kEveryMemberAttention;
  Rng rng(options.seed);
  QueryWorkspace workspace;
  SourceRun run{{}, params, options};
  EXPECT_TRUE(SourcePushInto(graph, u, options, params, &rng, &workspace,
                             &run.gu, /*stats=*/nullptr)
                  .ok());
  return run;
}

// Algorithms 3 and 4 over the run's G_u: γ per attention occurrence.
std::vector<double> RunGamma(const Graph& graph, const SourceRun& run) {
  QueryWorkspace workspace;
  HittingTable hitting;
  std::vector<double> gamma;
  EXPECT_TRUE(ComputeHittingTable(graph, run.gu, run.params.sqrt_c,
                                  &workspace, &hitting)
                  .ok());
  EXPECT_TRUE(ComputeLastMeetingProbabilities(run.gu, hitting, &workspace,
                                              &gamma)
                  .ok());
  return gamma;
}

TEST(Lemma2Test, AttentionCountAndDepthBounds) {
  auto graph = GenerateChungLu(2000, 14000, 2.3, 5);
  ASSERT_TRUE(graph.ok());
  for (NodeId u : {7u, 99u, 1500u}) {
    for (double epsilon : {0.05, 0.02}) {
      SourceRun run = RunSourcePush(*graph, u, epsilon);
      EXPECT_LE(run.gu.num_attention(), run.params.max_attention)
          << "u=" << u << " eps=" << epsilon;
      EXPECT_LE(run.gu.max_level(), run.params.l_star);
      for (const AttentionNode& attention : run.gu.attention_nodes()) {
        EXPECT_GE(attention.hitting_prob, run.params.eps_h);
        EXPECT_GE(attention.level, 1u);
        EXPECT_LE(attention.level, run.gu.max_level());
      }
    }
  }
}

TEST(Lemma2Test, LevelMassIsAtMostSqrtCPowEll) {
  // Σ_w h^(ℓ)(u, w) = √c^ℓ when no walk can die; ≤ in general
  // (dangling in-neighborhoods absorb mass).
  auto graph = GenerateChungLu(1000, 8000, 2.4, 9);
  ASSERT_TRUE(graph.ok());
  SourceRun run = RunSourcePush(*graph, 11, 0.02, /*every_member=*/true);
  const double sqrt_c = run.params.sqrt_c;
  for (uint32_t level = 1; level <= run.gu.max_level(); ++level) {
    double mass = 0;
    for (const auto& [node, h] : testing_util::LevelEntries(run.gu, level)) {
      mass += h;
    }
    EXPECT_LE(mass, std::pow(sqrt_c, level) + 1e-9) << "level " << level;
  }
}

TEST(Lemma2Test, LevelMassExactOnCycle) {
  // Every cycle node has exactly one in-neighbor: no mass is ever lost,
  // so the level mass is exactly √c^ℓ (all of it on one node).
  auto cycle = GenerateCycle(64);
  ASSERT_TRUE(cycle.ok());
  SourceRun run = RunSourcePush(*cycle, 0, 0.02, /*every_member=*/true);
  const double sqrt_c = run.params.sqrt_c;
  ASSERT_GE(run.gu.max_level(), 1u);
  for (uint32_t level = 1; level <= run.gu.max_level(); ++level) {
    const auto entries = testing_util::LevelEntries(run.gu, level);
    ASSERT_EQ(entries.size(), 1u);
    const double h = entries[0].second;
    EXPECT_NEAR(h, std::pow(sqrt_c, level), 1e-12) << "level " << level;
  }
}

// Monte-Carlo replica of Definition 4: two √c-walks from attention node
// w, confined to G_u (in-neighborhoods of levels < L are full, level L
// ends the walk), never meet at a *deeper attention* node.
double SimulateGamma(const Graph& graph, const SourceGraph& gu,
                     const AttentionNode& w, double sqrt_c, uint64_t trials,
                     Rng* rng) {
  uint64_t meets = 0;
  for (uint64_t trial = 0; trial < trials; ++trial) {
    NodeId a = w.node;
    NodeId b = w.node;
    bool a_alive = true, b_alive = true;
    bool met = false;
    for (uint32_t level = w.level + 1;
         level <= gu.max_level() && (a_alive || b_alive); ++level) {
      if (a_alive) {
        if (!rng->NextBernoulli(sqrt_c) || graph.InDegree(a) == 0) {
          a_alive = false;
        } else {
          a = graph.InNeighborAt(
              a, static_cast<uint32_t>(rng->NextBounded(graph.InDegree(a))));
        }
      }
      if (b_alive) {
        if (!rng->NextBernoulli(sqrt_c) || graph.InDegree(b) == 0) {
          b_alive = false;
        } else {
          b = graph.InNeighborAt(
              b, static_cast<uint32_t>(rng->NextBounded(graph.InDegree(b))));
        }
      }
      if (a_alive && b_alive && a == b) {
        AttentionId id;
        if (gu.LookupAttention(level, a, &id)) {
          met = true;
          break;
        }
      }
    }
    if (met) ++meets;
  }
  return 1.0 - static_cast<double>(meets) / trials;
}

TEST(Definition4Test, GammaMatchesMonteCarloSemantics) {
  auto graph = GenerateChungLu(800, 6400, 2.3, 13);
  ASSERT_TRUE(graph.ok());
  SourceRun run = RunSourcePush(*graph, 3, 0.02);
  if (run.gu.num_attention() == 0) GTEST_SKIP() << "no attention nodes";

  const std::vector<double> gamma = RunGamma(*graph, run);

  Rng rng(4242);
  const uint64_t kTrials = 40000;
  size_t checked = 0;
  for (AttentionId id = 0;
       id < run.gu.num_attention() && checked < 6; ++id) {
    const AttentionNode& w = run.gu.attention_nodes()[id];
    if (w.level >= run.gu.max_level()) continue;  // γ trivially 1
    const double simulated = SimulateGamma(*graph, run.gu, w,
                                           run.params.sqrt_c, kTrials, &rng);
    // MC std-dev <= 0.5/sqrt(trials) = 0.0025; allow 5σ plus a small
    // model tolerance.
    EXPECT_NEAR(gamma[id], simulated, 0.02)
        << "attention node " << w.node << " at level " << w.level;
    ++checked;
  }
  if (checked == 0) GTEST_SKIP() << "no non-terminal attention nodes";
}

TEST(Definition4Test, TerminalLevelGammaIsOne) {
  // Attention nodes on the deepest level have no deeper levels to meet
  // in: γ must be exactly 1.
  auto graph = GenerateChungLu(500, 4000, 2.4, 17);
  ASSERT_TRUE(graph.ok());
  SourceRun run = RunSourcePush(*graph, 5, 0.05);
  if (run.gu.num_attention() == 0) GTEST_SKIP();
  const std::vector<double> gamma = RunGamma(*graph, run);
  for (AttentionId id = 0; id < run.gu.num_attention(); ++id) {
    const AttentionNode& w = run.gu.attention_nodes()[id];
    if (w.level == run.gu.max_level()) {
      EXPECT_DOUBLE_EQ(gamma[id], 1.0);
    }
    EXPECT_GE(gamma[id], 0.0);
    EXPECT_LE(gamma[id], 1.0);
  }
}

}  // namespace
}  // namespace simpush
