// Tests for Source-Push (Algorithm 2): derived parameters, propagated
// hitting probabilities vs. the exact DP reference, pull levels and
// underflowing shares against a naive push, cancellation, G_u
// structure, and attention-node identification.

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/deadline.h"
#include "gtest/gtest.h"
#include "reference/exact_hitting.h"
#include "reference/graphs.h"
#include "simpush/engine_core.h"
#include "simpush/options.h"
#include "simpush/query_runner.h"
#include "simpush/source_push.h"
#include "simpush/workspace.h"
#include "test_util.h"
#include "walk/walk_batch.h"
#include "walk/walker.h"

namespace simpush {
namespace {

SimPushOptions FastOptions(double eps = 0.05) {
  SimPushOptions options;
  options.epsilon = eps;
  options.walk_budget_cap = 20000;
  return options;
}

TEST(DerivedParamsTest, MatchesFormulas) {
  SimPushOptions options;
  options.epsilon = 0.02;
  options.decay = 0.6;
  options.delta = 1e-4;
  const DerivedParams p = ComputeDerivedParams(options);
  const double sqrt_c = std::sqrt(0.6);
  EXPECT_NEAR(p.sqrt_c, sqrt_c, 1e-12);
  EXPECT_NEAR(p.eps_h, (1 - sqrt_c) / (3 * sqrt_c) * 0.02, 1e-12);
  const uint32_t expected_l_star = static_cast<uint32_t>(
      std::floor(std::log(1 / p.eps_h) / std::log(1 / sqrt_c)));
  EXPECT_EQ(p.l_star, expected_l_star);
  EXPECT_EQ(p.max_attention, static_cast<uint64_t>(std::floor(
                                 sqrt_c / ((1 - sqrt_c) * p.eps_h))));
}

TEST(DerivedParamsTest, WalkBudgetCapApplies) {
  SimPushOptions options;
  options.epsilon = 0.02;
  const DerivedParams uncapped = ComputeDerivedParams(options);
  options.walk_budget_cap = 1000;
  const DerivedParams capped = ComputeDerivedParams(options);
  EXPECT_GT(uncapped.num_walks, capped.num_walks);
  EXPECT_EQ(capped.num_walks, 1000u);
  // Threshold shrinks proportionally with the walk count.
  EXPECT_LT(capped.level_count_threshold, uncapped.level_count_threshold);
}

TEST(DerivedParamsTest, ChernoffWalkCountsAndThresholds) {
  // N = ⌈8·ln(1/((1-√c)·ε_h·δ))/ε_h⌉ at c = 0.6, δ = 1e-4, uncapped.
  const struct {
    double epsilon;
    uint64_t walks;
    uint64_t threshold;
  } kPinned[] = {{0.1, 12649, 62}, {0.05, 26441, 65}, {0.02, 69879, 68}};
  for (const auto& pinned : kPinned) {
    SimPushOptions options;
    options.epsilon = pinned.epsilon;
    const DerivedParams p = ComputeDerivedParams(options);
    EXPECT_EQ(p.num_walks, pinned.walks) << "epsilon " << pinned.epsilon;
    EXPECT_EQ(p.level_count_threshold, pinned.threshold)
        << "epsilon " << pinned.epsilon;
  }
}

TEST(DerivedParamsTest, HoeffdingCountWinsForLargeEpsH) {
  // 2/ε_h² <= 8/ε_h iff ε_h >= 1/4. At c = 0.01 (√c = 0.1),
  // ε_h = 3·ε, so ε = 0.1 gives ε_h = 0.3.
  SimPushOptions options;
  options.decay = 0.01;
  options.epsilon = 0.1;
  const DerivedParams p = ComputeDerivedParams(options);
  ASSERT_GE(p.eps_h, 0.25);
  const double log_term =
      std::log(1.0 / ((1.0 - p.sqrt_c) * p.eps_h * options.delta));
  EXPECT_EQ(p.num_walks, static_cast<uint64_t>(std::ceil(
                             2.0 * log_term / (p.eps_h * p.eps_h))));
  EXPECT_LT(p.num_walks, static_cast<uint64_t>(8.0 * log_term / p.eps_h));
}

TEST(DerivedParamsTest, TinyEpsilonStillRunsWalks) {
  // The paper's Hoeffding count passes 2^64 near ε = 1e-8; the walk
  // count must neither wrap to 0 nor skip the cap.
  SimPushOptions options;
  options.epsilon = 1e-9;
  const DerivedParams uncapped = ComputeDerivedParams(options);
  EXPECT_GT(uncapped.num_walks, 0u);
  EXPECT_GE(uncapped.level_count_threshold, 1u);
  options.walk_budget_cap = 100000;
  const DerivedParams capped = ComputeDerivedParams(options);
  EXPECT_EQ(capped.num_walks, 100000u);
}

TEST(DerivedParamsTest, SmallerEpsilonDeeperHorizon) {
  SimPushOptions coarse = FastOptions(0.1);
  SimPushOptions fine = FastOptions(0.005);
  EXPECT_LT(ComputeDerivedParams(coarse).l_star,
            ComputeDerivedParams(fine).l_star);
  EXPECT_LT(ComputeDerivedParams(coarse).max_attention,
            ComputeDerivedParams(fine).max_attention);
}

TEST(SourcePushTest, HittingProbsMatchExactDP) {
  Graph g = testing_util::MakeFixtureGraph();
  SimPushOptions options = FastOptions();
  options.use_level_detection = false;  // Explore all L* levels.
  DerivedParams params = ComputeDerivedParams(options);
  params.eps_h = testing_util::kEveryMemberAttention;
  Rng rng(1);
  SourcePushStats stats;
  QueryWorkspace workspace;
  SourceGraph gu;
  ASSERT_TRUE(SourcePushInto(g, 0, options, params, &rng, &workspace, &gu,
                             &stats)
                  .ok());
  auto exact = ExactHittingProbabilities(g, 0, gu.max_level(), params.sqrt_c);
  for (uint32_t level = 0; level <= gu.max_level(); ++level) {
    std::vector<double> got(g.num_nodes(), 0.0);
    for (const auto& [v, h] : testing_util::LevelEntries(gu, level)) {
      got[v] = h;
    }
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_NEAR(got[v], exact[level][v], 1e-12)
          << "level " << level << " node " << v;
    }
  }
}

TEST(SourcePushTest, AttentionNodesAreExactlyThoseAboveThreshold) {
  Graph g = testing_util::MakeFixtureGraph();
  SimPushOptions options = FastOptions();
  options.use_level_detection = false;
  const DerivedParams params = ComputeDerivedParams(options);
  // Every member's h, from a run where every member is attention.
  DerivedParams all_params = params;
  all_params.eps_h = testing_util::kEveryMemberAttention;
  QueryWorkspace workspace;
  SourceGraph gu, all;
  Rng rng(2), all_rng(2);
  ASSERT_TRUE(SourcePushInto(g, 2, options, params, &rng, &workspace, &gu,
                             nullptr)
                  .ok());
  ASSERT_TRUE(SourcePushInto(g, 2, options, all_params, &all_rng, &workspace,
                             &all, nullptr)
                  .ok());
  ASSERT_EQ(gu.max_level(), all.max_level());
  for (uint32_t level = 1; level <= gu.max_level(); ++level) {
    EXPECT_EQ(gu.Level(level), all.Level(level)) << "level " << level;
    for (const auto& [node, h] : testing_util::LevelEntries(all, level)) {
      AttentionId id;
      const bool is_attention = gu.LookupAttention(level, node, &id);
      EXPECT_EQ(is_attention, h >= params.eps_h)
          << "level " << level << " node " << node << " h=" << h;
      if (is_attention) {
        const AttentionNode& a = gu.attention_nodes()[id];
        EXPECT_EQ(a.node, node);
        EXPECT_EQ(a.level, level);
        EXPECT_DOUBLE_EQ(a.hitting_prob, h);
      }
    }
  }
}

TEST(SourcePushTest, AttentionCountWithinLemma2Bound) {
  Graph g = testing_util::RandomGraph(300, 2400, 41);
  SimPushOptions options = FastOptions(0.02);
  const DerivedParams params = ComputeDerivedParams(options);
  Rng rng(3);
  SourcePushStats stats;
  QueryWorkspace workspace;
  SourceGraph gu;
  ASSERT_TRUE(SourcePushInto(g, 7, options, params, &rng, &workspace, &gu,
                             &stats)
                  .ok());
  EXPECT_LE(gu.num_attention(), params.max_attention);
  EXPECT_LE(gu.max_level(), params.l_star);
}

TEST(SourcePushTest, LevelMassBoundedBySqrtCPower) {
  Graph g = testing_util::RandomGraph(200, 1500, 43);
  SimPushOptions options = FastOptions();
  options.use_level_detection = false;
  DerivedParams params = ComputeDerivedParams(options);
  params.eps_h = testing_util::kEveryMemberAttention;
  Rng rng(4);
  QueryWorkspace workspace;
  SourceGraph gu;
  ASSERT_TRUE(SourcePushInto(g, 11, options, params, &rng, &workspace, &gu,
                             nullptr)
                  .ok());
  for (uint32_t level = 0; level <= gu.max_level(); ++level) {
    double mass = 0;
    for (const auto& [node, h] : testing_util::LevelEntries(gu, level)) {
      (void)node;
      mass += h;
    }
    EXPECT_LE(mass, std::pow(params.sqrt_c, level) + 1e-9);
  }
}

TEST(SourcePushTest, DanglingQueryNodeYieldsRootOnly) {
  // Node 0 has no in-neighbors: G_u is only the root; no attention nodes.
  Graph g = testing_util::MakeGraph(3, {{0, 1}, {1, 2}});
  SimPushOptions options = FastOptions();
  const DerivedParams params = ComputeDerivedParams(options);
  Rng rng(5);
  SourcePushStats stats;
  QueryWorkspace workspace;
  SourceGraph gu;
  ASSERT_TRUE(SourcePushInto(g, 0, options, params, &rng, &workspace, &gu,
                             &stats)
                  .ok());
  EXPECT_EQ(gu.num_attention(), 0u);
  EXPECT_TRUE(gu.Level(1).empty());
}

TEST(SourcePushTest, RejectsOutOfRangeQuery) {
  Graph g = testing_util::MakeFixtureGraph();
  SimPushOptions options = FastOptions();
  const DerivedParams params = ComputeDerivedParams(options);
  Rng rng(6);
  QueryWorkspace workspace;
  SourceGraph gu;
  EXPECT_FALSE(SourcePushInto(g, 100, options, params, &rng, &workspace, &gu,
                              nullptr)
                   .ok());
}

TEST(SourcePushTest, LevelDetectionNeverExceedsLStar) {
  Graph g = testing_util::RandomGraph(100, 700, 47);
  SimPushOptions options = FastOptions(0.1);
  const DerivedParams params = ComputeDerivedParams(options);
  for (NodeId u = 0; u < 10; ++u) {
    Rng rng(100 + u);
    SourcePushStats stats;
    QueryWorkspace workspace;
    SourceGraph gu;
    ASSERT_TRUE(SourcePushInto(g, u, options, params, &rng, &workspace, &gu,
                               &stats)
                    .ok());
    EXPECT_LE(stats.detected_level, params.l_star);
    EXPECT_GE(stats.detected_level, 1u);
    EXPECT_EQ(stats.num_attention, gu.num_attention());
  }
}

TEST(SourcePushTest, CycleGraphKeepsFullMass) {
  // On a directed cycle each node has exactly one in-neighbor, so the
  // pushed mass at level l concentrates on a single node: √c^l.
  auto g = GenerateCycle(12);
  ASSERT_TRUE(g.ok());
  SimPushOptions options = FastOptions();
  options.use_level_detection = false;
  DerivedParams params = ComputeDerivedParams(options);
  params.eps_h = testing_util::kEveryMemberAttention;
  Rng rng(7);
  QueryWorkspace workspace;
  SourceGraph gu;
  ASSERT_TRUE(SourcePushInto(*g, 0, options, params, &rng, &workspace, &gu,
                             nullptr)
                  .ok());
  for (uint32_t level = 1; level <= gu.max_level(); ++level) {
    const auto entries = testing_util::LevelEntries(gu, level);
    ASSERT_EQ(entries.size(), 1u);
    const NodeId expected = (0 + 12 - (level % 12)) % 12;
    EXPECT_EQ(entries[0].first, expected);
    EXPECT_NEAR(entries[0].second, std::pow(params.sqrt_c, level), 1e-12);
  }
}

// The propagation as Algorithm 2 states it: level ℓ+1 receives
// √c·h(v)/d_I(v) at every in-neighbor of v, for the level-ℓ nodes v in
// ascending order. Returns levels 0..max_level (or until one is empty),
// each ascending by node.
using LevelList = std::vector<std::vector<std::pair<NodeId, double>>>;
LevelList NaivePush(const Graph& graph, NodeId u, uint32_t max_level,
                    double sqrt_c) {
  LevelList levels(1, {{u, 1.0}});
  while (levels.size() <= max_level && !levels.back().empty()) {
    std::map<NodeId, double> next;
    for (const auto& [v, h] : levels.back()) {
      const uint32_t deg = graph.InDegree(v);
      if (deg == 0) continue;
      const double share = sqrt_c * h / deg;
      for (const NodeId vp : graph.InNeighbors(v)) {
        const auto [it, inserted] = next.try_emplace(vp, share);
        if (!inserted) it->second += share;
      }
    }
    levels.emplace_back(next.begin(), next.end());
  }
  return levels;
}

// True when Source-Push computes level ℓ+1 from `level` by pulling.
bool PullsFrom(const Graph& graph,
               const std::vector<std::pair<NodeId, double>>& level) {
  EdgeId in_edges = 0;
  for (const auto& [v, h] : level) in_edges += graph.InDegree(v);
  return in_edges > graph.num_edges() / kPullEdgeFraction;
}

// Directions seen between consecutive computed levels.
struct Crossings {
  bool pull = false;
  bool push_to_pull = false;
  bool pull_to_push = false;
};

// Runs SourcePushInto with `params` and detection off (all L* levels)
// from every source in `sources` with one reused workspace and checks
// every level's members against NaivePush's, and that the attention
// occurrences are exactly NaivePush's entries >= ε_h, with equal h bits.
// With kEveryMemberAttention that compares every entry's h.
void ExpectPushEqualsNaive(const Graph& graph,
                           const std::vector<NodeId>& sources,
                           const DerivedParams& params,
                           Crossings* crossings) {
  SimPushOptions options = FastOptions();
  options.use_level_detection = false;
  QueryWorkspace workspace;
  SourceGraph gu;
  for (const NodeId u : sources) {
    Rng rng(u);
    ASSERT_TRUE(SourcePushInto(graph, u, options, params, &rng, &workspace,
                               &gu, nullptr)
                    .ok());
    const LevelList expected =
        NaivePush(graph, u, gu.max_level(), params.sqrt_c);
    for (uint32_t level = 0; level <= gu.max_level(); ++level) {
      const auto& want = level < expected.size()
                             ? expected[level]
                             : std::vector<std::pair<NodeId, double>>{};
      const std::vector<NodeId>& got = gu.Level(level);
      ASSERT_EQ(got.size(), want.size()) << "u " << u << " level " << level;
      size_t attention = 0;
      for (size_t i = 0; i < want.size(); ++i) {
        const auto& [node, h] = want[i];
        ASSERT_EQ(got[i], node) << "u " << u << " level " << level;
        AttentionId id;
        const bool is_attention = gu.LookupAttention(level, node, &id);
        ASSERT_EQ(is_attention, level > 0 && h >= params.eps_h)
            << "u " << u << " level " << level << " node " << node;
        if (!is_attention) continue;
        ++attention;
        const double got_h = gu.attention_nodes()[id].hitting_prob;
        ASSERT_EQ(std::bit_cast<uint64_t>(got_h), std::bit_cast<uint64_t>(h))
            << "u " << u << " level " << level << " node " << node;
      }
      ASSERT_EQ(gu.AttentionOnLevel(level).size(), attention)
          << "u " << u << " level " << level;
    }
    for (size_t level = 0; level + 1 < expected.size(); ++level) {
      if (expected[level + 1].empty()) break;
      const bool pull = PullsFrom(graph, expected[level]);
      crossings->pull |= pull;
      if (level > 0 && pull != PullsFrom(graph, expected[level - 1])) {
        (pull ? crossings->push_to_pull : crossings->pull_to_push) = true;
      }
    }
  }
}

std::vector<NodeId> AllNodes(const Graph& graph) {
  std::vector<NodeId> nodes(graph.num_nodes());
  for (NodeId v = 0; v < graph.num_nodes(); ++v) nodes[v] = v;
  return nodes;
}

// A hub-heavy graph: hub 0 linked both ways to every rim node 1..rim,
// which also form a two-way cycle. The triangles break the bipartition
// a star has, so from the rim the levels grow past half of m.
StatusOr<Graph> Wheel(NodeId rim) {
  GraphBuilder builder(rim + 1);
  for (NodeId i = 1; i <= rim; ++i) {
    builder.AddUndirectedEdge(0, i);
    builder.AddUndirectedEdge(i, i % rim + 1);
  }
  return std::move(builder).Build();
}

// A lattice-like graph: a side x side grid with two-way right, down and
// down-right links. Unlike a plain grid it is not bipartite, so a deep
// level covers the whole lattice rather than one color class.
StatusOr<Graph> TriangularLattice(NodeId side) {
  GraphBuilder builder(side * side);
  for (NodeId r = 0; r < side; ++r) {
    for (NodeId c = 0; c < side; ++c) {
      const NodeId v = r * side + c;
      if (c + 1 < side) builder.AddUndirectedEdge(v, v + 1);
      if (r + 1 < side) builder.AddUndirectedEdge(v, v + side);
      if (c + 1 < side && r + 1 < side) {
        builder.AddUndirectedEdge(v, v + side + 1);
      }
    }
  }
  return std::move(builder).Build();
}

TEST(SourcePushTest, PullLevelsEqualNaivePushBitForBit) {
  // A funnel with duplicate edges, a self-loop and nodes without in- or
  // out-edges: level 1 (nodes 1-8) has 40 of m = 50 in-edges and pulls;
  // level 2 is node 9 alone and pushes. Every graph here takes a pull
  // level at kPullEdgeFraction 4 and at 2 alike.
  GraphBuilder funnel(12);
  for (NodeId i = 1; i <= 8; ++i) {
    funnel.AddEdge(i, 0);
    for (int dup = 0; dup < 5; ++dup) funnel.AddEdge(9, i);
  }
  funnel.AddEdge(9, 9);    // Self-loop.
  funnel.AddEdge(10, 9);   // 10 has no in-edges; 11 has no edges.
  auto funnel_graph = std::move(funnel).Build(/*dedupe=*/false);
  ASSERT_TRUE(funnel_graph.ok());
  ASSERT_EQ(funnel_graph->InDegree(1), 5u);

  auto complete = GenerateComplete(40);
  auto wheel = Wheel(300);
  auto lattice = TriangularLattice(8);
  auto chung_lu = GenerateChungLu(2000, 16000, 2.2, 5);
  ASSERT_TRUE(complete.ok() && wheel.ok() && lattice.ok() && chung_lu.ok());

  SimPushOptions options = FastOptions();
  options.use_level_detection = false;
  DerivedParams params = ComputeDerivedParams(options);
  params.eps_h = testing_util::kEveryMemberAttention;
  Crossings all;
  const std::pair<const char*, const Graph*> kZoo[] = {
      {"funnel", &*funnel_graph}, {"complete", &*complete},
      {"wheel", &*wheel},         {"lattice", &*lattice},
      {"chung_lu", &*chung_lu}};
  for (const auto& [name, graph] : kZoo) {
    SCOPED_TRACE(name);
    std::vector<NodeId> sources = AllNodes(*graph);
    if (sources.size() > 24) sources.resize(24);
    Crossings crossings;
    ExpectPushEqualsNaive(*graph, sources, params, &crossings);
    EXPECT_TRUE(crossings.pull);
    all.push_to_pull |= crossings.push_to_pull;
    all.pull_to_push |= crossings.pull_to_push;
  }
  EXPECT_TRUE(all.push_to_pull);
  EXPECT_TRUE(all.pull_to_push);
}

// With a tiny √c the shares round to +0.0 after a level or two, yet a
// node still joins a level by its edges. Every level, pulled or pushed,
// keeps exactly NaivePush's nodes (ε_h = 1e-3 leaves no attention
// occurrence to compare h bits with). √c = 1e-160 makes
// level 1's shares a mix of subnormals and +0.0; 1e-200 rounds them all
// to +0.0.
TEST(SourcePushTest, UnderflowedSharesKeepMembership) {
  auto complete = GenerateComplete(40);
  auto grid = GenerateGrid(4, 4);
  auto chung_lu = GenerateChungLu(2000, 16000, 2.2, 5);
  ASSERT_TRUE(complete.ok() && grid.ok() && chung_lu.ok());
  const std::pair<const char*, const Graph*> kZoo[] = {
      {"complete", &*complete}, {"grid", &*grid}, {"chung_lu", &*chung_lu}};
  bool pulled_zero = false;  // A pulled level gained a +0.0 entry.
  bool pushed_zero = false;  // A pushed level gained a +0.0 entry.
  for (const double sqrt_c : {1e-160, 1e-200}) {
    DerivedParams params;
    params.sqrt_c = sqrt_c;
    params.eps_h = 1e-3;
    params.l_star = 5;
    for (const auto& [name, graph] : kZoo) {
      SCOPED_TRACE(name);
      std::vector<NodeId> sources = AllNodes(*graph);
      if (sources.size() > 24) sources.resize(24);
      Crossings crossings;
      ExpectPushEqualsNaive(*graph, sources, params, &crossings);
      for (const NodeId u : sources) {
        const LevelList levels = NaivePush(*graph, u, params.l_star, sqrt_c);
        for (size_t level = 0; level + 1 < levels.size(); ++level) {
          const bool zero = std::any_of(
              levels[level + 1].begin(), levels[level + 1].end(),
              [](const auto& entry) { return entry.second == 0.0; });
          if (!zero) continue;
          (PullsFrom(*graph, levels[level]) ? pulled_zero : pushed_zero) =
              true;
        }
      }
    }
  }
  EXPECT_TRUE(pulled_zero);
  EXPECT_TRUE(pushed_zero);
}

// Level detection stops Source-Push at the detected L instead of L*.
// For every source in `sources` at ε = `eps` (derived walk count, no
// cap): the scores equal those of a query with detection off bit for
// bit; levels <= L-2 of G_u hold NaivePush's nodes; levels L-1 and L
// hold subsets of them that include every entry >= ε_h; and the
// attention occurrences are exactly the entries >= ε_h, with equal h
// bits.
// Returns how many queries (L >= 3) evaluated level L-1 on demand, i.e.
// kept fewer entries there than NaivePush.
int ExpectDetectionKeepsScoreBits(const Graph& graph,
                                  const std::vector<NodeId>& sources,
                                  double eps) {
  SimPushOptions options;
  options.epsilon = eps;
  SimPushOptions undetected = options;
  undetected.use_level_detection = false;
  const EngineCore core(graph, options);
  const EngineCore full_core(graph, undetected);
  QueryWorkspace workspace, full_workspace;
  QueryRunner runner(core, &workspace);
  QueryRunner full_runner(full_core, &full_workspace);
  const DerivedParams& params = core.derived();
  SimPushResult got, want;
  int demand_queries = 0;
  for (const NodeId u : sources) {
    EXPECT_TRUE(runner.QueryInto(u, &got).ok());
    EXPECT_TRUE(full_runner.QueryInto(u, &want).ok());
    EXPECT_EQ(got.scores.size(), want.scores.size());
    if (got.scores.size() != want.scores.size()) return demand_queries;
    for (NodeId v = 0; v < want.scores.size(); ++v) {
      EXPECT_EQ(std::bit_cast<uint64_t>(got.scores[v]),
                std::bit_cast<uint64_t>(want.scores[v]))
          << "u " << u << " v " << v;
    }
    const SourceGraph& gu = workspace.source_graph;
    const uint32_t max_level = gu.max_level();
    const LevelList naive = NaivePush(graph, u, max_level, params.sqrt_c);
    for (uint32_t level = 0; level <= max_level; ++level) {
      const auto& full = level < naive.size()
                             ? naive[level]
                             : std::vector<std::pair<NodeId, double>>{};
      const std::vector<NodeId>& kept = gu.Level(level);
      if (level + 2 <= max_level) {
        EXPECT_EQ(kept.size(), full.size()) << "u " << u << " level " << level;
      }
      if (max_level >= 3 && level + 1 == max_level &&
          kept.size() < full.size()) {
        ++demand_queries;
      }
      // Both lists ascend by node: one merge finds every kept node in
      // the full level, and every full entry >= ε_h among the kept.
      size_t k = 0;
      for (const auto& [node, h] : full) {
        if (k < kept.size() && kept[k] == node) {
          AttentionId id;
          const bool is_attention = gu.LookupAttention(level, node, &id);
          EXPECT_EQ(is_attention, level > 0 && h >= params.eps_h)
              << "u " << u << " level " << level << " node " << node;
          if (is_attention) {
            EXPECT_EQ(
                std::bit_cast<uint64_t>(gu.attention_nodes()[id].hitting_prob),
                std::bit_cast<uint64_t>(h))
                << "u " << u << " level " << level << " node " << node;
          }
          ++k;
        } else {
          EXPECT_LT(h, params.eps_h)
              << "u " << u << " level " << level << " node " << node;
        }
      }
      EXPECT_EQ(k, kept.size()) << "u " << u << " level " << level;
    }
  }
  return demand_queries;
}

TEST(SourcePushTest, DetectedLevelsKeepScoresBitForBit) {
  GraphBuilder funnel(12);
  for (NodeId i = 1; i <= 8; ++i) {
    funnel.AddEdge(i, 0);
    for (int dup = 0; dup < 5; ++dup) funnel.AddEdge(9, i);
  }
  funnel.AddEdge(9, 9);
  funnel.AddEdge(10, 9);
  auto funnel_graph = std::move(funnel).Build(/*dedupe=*/false);
  auto complete = GenerateComplete(40);
  auto star = GenerateStar(300, /*bidirectional=*/true);
  auto grid = GenerateGrid(3, 3);
  auto chung_lu = GenerateChungLu(2000, 16000, 2.2, 5);
  auto chung_lu_20k = GenerateChungLu(20000, 160000, 2.2, 7);
  ASSERT_TRUE(funnel_graph.ok() && complete.ok() && star.ok() && grid.ok() &&
              chung_lu.ok() && chung_lu_20k.ok());

  const std::pair<const char*, const Graph*> kZoo[] = {
      {"funnel", &*funnel_graph}, {"complete", &*complete},
      {"star", &*star},           {"grid", &*grid},
      {"chung_lu", &*chung_lu},   {"chung_lu_20k", &*chung_lu_20k}};
  int demand_queries = 0;
  for (const double eps : {0.05, 0.1}) {
    for (const auto& [name, graph] : kZoo) {
      SCOPED_TRACE(std::string(name) + " eps " + std::to_string(eps));
      std::vector<NodeId> sources = AllNodes(*graph);
      if (sources.size() > 24) sources.resize(24);
      demand_queries += ExpectDetectionKeepsScoreBits(*graph, sources, eps);
    }
  }
  EXPECT_GT(demand_queries, 0);
}

// Level detection as Algorithm 2 states it, from a tally of every visit:
// L, the sorted keys at levels L-1 and L whose count reaches the
// threshold, and every count.
struct ReferenceDetection {
  uint32_t level = 0;
  std::vector<uint64_t> deep_keys;
  std::map<uint64_t, uint64_t> counts;  // (level << 32 | node) -> visits.
};

ReferenceDetection DetectByFullTally(const Graph& graph, NodeId u,
                                     const DerivedParams& params,
                                     uint64_t walk_seed) {
  const Walker walker(graph, params.sqrt_c);
  ReferenceDetection want;
  std::map<uint64_t, uint64_t>& counts = want.counts;
  RunWalkWaves(graph, u, walk_seed, params.num_walks, params.l_star,
               walker.inv_log_sqrt_c(), [&](uint32_t level, NodeId node) {
                 ++counts[(static_cast<uint64_t>(level) << 32) | node];
               });
  for (const auto& [key, count] : counts) {
    if (count >= params.level_count_threshold) {
      want.level = std::max(want.level, static_cast<uint32_t>(key >> 32));
    }
  }
  for (const auto& [key, count] : counts) {
    const uint32_t level = static_cast<uint32_t>(key >> 32);
    if (level + 1 >= want.level && level <= want.level &&
        count >= params.level_count_threshold) {
      want.deep_keys.push_back(key);
    }
  }
  return want;
}

// The candidate keys DetectMaxLevel left at levels L-1 and L, sorted.
std::vector<uint64_t> DeepCandidates(const QueryWorkspace& workspace,
                                     uint32_t max_level) {
  std::vector<uint64_t> keys;
  for (const uint64_t key : workspace.level_candidates) {
    const uint32_t level = static_cast<uint32_t>(key >> 32);
    if (level + 1 >= max_level && level <= max_level) keys.push_back(key);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

// Level detection's visit log at levels L-1 and L (as multisets), and
// the candidates there (the keys whose count reached the threshold),
// equal those of a tally that counts every visit, for any wave width;
// so does L.
TEST(SourcePushTest, DeepestLevelCandidatesIgnoreWalkOrder) {
  auto graph = GenerateChungLu(2000, 16000, 2.2, 5);
  ASSERT_TRUE(graph.ok());
  SimPushOptions options;
  options.epsilon = 0.05;
  const DerivedParams params = ComputeDerivedParams(options);
  QueryWorkspace workspace;
  uint32_t deepest = 0;
  for (NodeId u = 0; u < 16; ++u) {
    // DetectMaxLevel keys its walk streams with the RNG's first draw.
    const ReferenceDetection want =
        DetectByFullTally(*graph, u, params, Rng(u).Next());
    deepest = std::max(deepest, want.level);
    // The sorted visit multiset of one level, from the full tally.
    const auto want_visits = [&](uint32_t level) {
      std::vector<NodeId> nodes;
      for (const auto& [key, count] : want.counts) {
        if (static_cast<uint32_t>(key >> 32) != level) continue;
        nodes.insert(nodes.end(), count, static_cast<NodeId>(key));
      }
      return nodes;
    };
    for (const uint32_t wave : {1u, 8u, 64u, 256u}) {
      SCOPED_TRACE("u " + std::to_string(u) + " wave " + std::to_string(wave));
      Rng rng(u);
      uint64_t walks = 0;
      EXPECT_EQ(DetectMaxLevel(*graph, u, params, &rng, &workspace, &walks,
                               nullptr, wave),
                want.level);
      EXPECT_EQ(walks, params.num_walks);
      for (uint32_t level = want.level == 0 ? 0 : want.level - 1;
           level <= want.level; ++level) {
        std::vector<NodeId> logged = workspace.level_visits[level];
        std::sort(logged.begin(), logged.end());
        EXPECT_EQ(logged, want_visits(level)) << "level " << level;
      }
      EXPECT_EQ(DeepCandidates(workspace, want.level), want.deep_keys);
    }
  }
  EXPECT_GE(deepest, 3u);
}

// DetectMaxLevel against the full tally where L is 0 or 1, or where a
// level above L has visits but no count at the threshold.
TEST(SourcePushTest, DetectionEdgeCases) {
  // Node 0 has 4 in-neighbors 1..4 and each of those 2 000 in-neighbors
  // (leaves), so level 1 holds four heavy nodes and level 2 ~16 000
  // visits spread over 8 000 leaves, none near the threshold. Leaf 5
  // has one in-neighbor, 8 005, so level 3 sees a handful of visits.
  // Node 8 005 has no in-neighbors.
  constexpr NodeId kLeaves = 2000;
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId a = 1; a <= 4; ++a) {
    edges.emplace_back(a, 0);
    for (NodeId j = 0; j < kLeaves; ++j) {
      edges.emplace_back(5 + (a - 1) * kLeaves + j, a);
    }
  }
  const NodeId kDangling = 5 + 4 * kLeaves;
  edges.emplace_back(kDangling, 5);
  const Graph fan = testing_util::MakeGraph(kDangling + 1, edges);
  auto chung_lu = GenerateChungLu(2000, 16000, 2.2, 5);
  ASSERT_TRUE(chung_lu.ok());

  struct Case {
    const char* name;
    const Graph* graph;
    NodeId u;
    bool walks_below_threshold;  // Run threshold - 1 walks.
    int want_level;              // -1: not pinned.
  };
  const Case kCases[] = {
      {"no in-neighbors", &fan, kDangling, false, 0},
      {"walks below threshold", &fan, 0, true, 0},
      {"fan, level 2 under threshold", &fan, 0, false, 1},
      {"leaf", &fan, 5, false, 1},
      {"chung_lu 0", &*chung_lu, 0, false, -1},
      {"chung_lu 7", &*chung_lu, 7, false, -1},
  };
  QueryWorkspace workspace;
  for (const double eps : {0.05, 0.02}) {
    for (const double decay : {0.6, 0.8}) {
      SimPushOptions options;
      options.epsilon = eps;
      options.decay = decay;
      for (const Case& c : kCases) {
        DerivedParams params = ComputeDerivedParams(options);
        if (c.walks_below_threshold) {
          params.num_walks = params.level_count_threshold - 1;
        }
        const uint64_t seed = 17 + c.u;
        const ReferenceDetection want =
            DetectByFullTally(*c.graph, c.u, params, Rng(seed).Next());
        if (c.want_level >= 0) {
          EXPECT_EQ(want.level, static_cast<uint32_t>(c.want_level))
              << c.name << " eps " << eps << " c " << decay;
        }
        for (const uint32_t wave : {1u, 64u, 256u}) {
          SCOPED_TRACE(std::string(c.name) + " eps " + std::to_string(eps) +
                       " c " + std::to_string(decay) + " wave " +
                       std::to_string(wave));
          Rng rng(seed);
          uint64_t walks = 0;
          const uint32_t level = DetectMaxLevel(
              *c.graph, c.u, params, &rng, &workspace, &walks, nullptr, wave);
          EXPECT_EQ(level, want.level);
          EXPECT_EQ(walks, params.num_walks);
          EXPECT_EQ(DeepCandidates(workspace, level), want.deep_keys);
        }
      }
    }
  }
}

// A token that fired before detection starts runs no walk and leaves
// no candidate, even in a workspace a finished detection filled.
TEST(SourcePushTest, DetectionWithFiredTokenRunsNoWalk) {
  auto graph = GenerateChungLu(2000, 16000, 2.2, 5);
  ASSERT_TRUE(graph.ok());
  SimPushOptions options;
  options.epsilon = 0.05;
  const DerivedParams params = ComputeDerivedParams(options);
  QueryWorkspace workspace;
  Rng rng(3);
  uint64_t walks = 0;
  ASSERT_GE(DetectMaxLevel(*graph, 0, params, &rng, &workspace, &walks,
                           nullptr, kDefaultWalkWaveSize),
            1u);
  ASSERT_FALSE(workspace.level_candidates.empty());
  CancelToken token;
  token.Cancel();
  Rng fired_rng(3);
  EXPECT_EQ(DetectMaxLevel(*graph, 0, params, &fired_rng, &workspace, &walks,
                           &token, kDefaultWalkWaveSize),
            0u);
  EXPECT_EQ(walks, 0u);
  EXPECT_TRUE(workspace.level_candidates.empty());
}

// Every level's members and every attention occurrence of `got` equal
// `want`'s, bit for bit. Built with kEveryMemberAttention, the two hold
// every member's h in their attention occurrences.
void ExpectSameSourceGraph(const SourceGraph& got, const SourceGraph& want) {
  ASSERT_EQ(got.max_level(), want.max_level());
  for (uint32_t level = 0; level <= want.max_level(); ++level) {
    EXPECT_EQ(got.Level(level), want.Level(level)) << "level " << level;
  }
  ASSERT_EQ(got.num_attention(), want.num_attention());
  for (size_t id = 0; id < want.num_attention(); ++id) {
    const AttentionNode& a = got.attention_nodes()[id];
    const AttentionNode& b = want.attention_nodes()[id];
    EXPECT_EQ(a.node, b.node) << "id " << id;
    EXPECT_EQ(a.level, b.level) << "id " << id;
    EXPECT_EQ(std::bit_cast<uint64_t>(a.hitting_prob),
              std::bit_cast<uint64_t>(b.hitting_prob))
        << "id " << id;
  }
}

// Both zero-restored accumulators read all +0.0 (bit pattern 0, so a
// -0.0 or a leftover share below ε_h fails too).
void ExpectAccumulatorsClean(const QueryWorkspace& workspace) {
  for (const auto& [name, slots] :
       {std::pair{"accum_a", &workspace.accum_a},
        std::pair{"accum_b", &workspace.accum_b}}) {
    size_t dirty = 0;
    for (const double x : *slots) dirty += std::bit_cast<uint64_t>(x) != 0;
    EXPECT_EQ(dirty, 0u) << name << " slots are not +0.0";
  }
}

TEST(SourcePushTest, CancelDuringPullLevel) {
  // On K_300 level 0 (one node, 299 in-edges) pushes and level 1 (299
  // nodes, ~m in-edges) pulls. With detection off nothing polls before
  // propagation, and the one pushed occurrence is far below the stride,
  // so the first poll of a cancelled token lands inside the pull.
  auto graph = GenerateComplete(300);
  ASSERT_TRUE(graph.ok());
  SimPushOptions options = FastOptions();
  options.use_level_detection = false;
  DerivedParams params = ComputeDerivedParams(options);
  params.eps_h = testing_util::kEveryMemberAttention;
  const NodeId u = 0;
  ASSERT_FALSE(PullsFrom(*graph, {{u, 1.0}}));
  ASSERT_TRUE(PullsFrom(*graph, NaivePush(*graph, u, 1, params.sqrt_c)[1]));

  QueryWorkspace workspace;
  SourceGraph gu;
  CancelToken token;
  token.Cancel();
  Rng rng(1);
  const Status status = SourcePushInto(*graph, u, options, params, &rng,
                                       &workspace, &gu, nullptr, &token);
  EXPECT_EQ(status.code(), StatusCode::kCancelled);
  ExpectAccumulatorsClean(workspace);

  // The aborted pull leaves no residue in the reused workspace: a query
  // from node 1, whose level 1 lacks node 1, matches a fresh workspace.
  SourceGraph after, fresh;
  QueryWorkspace fresh_workspace;
  Rng rng_after(2), rng_fresh(2);
  ASSERT_TRUE(SourcePushInto(*graph, 1, options, params, &rng_after,
                             &workspace, &after, nullptr)
                  .ok());
  ASSERT_TRUE(SourcePushInto(*graph, 1, options, params, &rng_fresh,
                             &fresh_workspace, &fresh, nullptr)
                  .ok());
  ExpectAccumulatorsClean(workspace);
  ASSERT_EQ(fresh.num_attention(), fresh.TotalNodeOccurrences());
  ExpectSameSourceGraph(after, fresh);
}

TEST(SourcePushTest, CancelDuringPushLevel) {
  // Node 0 has 300 in-neighbors 1..300 (level 1), and each i of those
  // one in-neighbor 300 + i (level 2); a separate 700-edge cycle pads m
  // so that level 1's 300 in-edges stay <= m/4 and level 2 is pushed.
  // With detection off the first poll of a cancelled token lands on the
  // 255th pushed occurrence of level 1, with level 2 half accumulated.
  constexpr NodeId kLeaves = 300;
  constexpr NodeId kCycle = 700;
  GraphBuilder builder(2 * kLeaves + 1 + kCycle);
  for (NodeId i = 1; i <= kLeaves; ++i) {
    builder.AddEdge(i, 0);
    builder.AddEdge(kLeaves + i, i);
  }
  for (NodeId i = 0; i < kCycle; ++i) {
    builder.AddEdge(2 * kLeaves + 1 + i, 2 * kLeaves + 1 + (i + 1) % kCycle);
  }
  auto graph = std::move(builder).Build();
  ASSERT_TRUE(graph.ok());
  SimPushOptions options = FastOptions();
  options.use_level_detection = false;
  DerivedParams params = ComputeDerivedParams(options);
  params.eps_h = testing_util::kEveryMemberAttention;
  const LevelList naive = NaivePush(*graph, 0, 2, params.sqrt_c);
  ASSERT_EQ(naive[1].size(), kLeaves);
  ASSERT_EQ(naive[2].size(), kLeaves);
  ASSERT_FALSE(PullsFrom(*graph, naive[0]));
  ASSERT_FALSE(PullsFrom(*graph, naive[1]));

  QueryWorkspace workspace;
  SourceGraph gu;
  CancelToken token;
  token.Cancel();
  Rng rng(1);
  EXPECT_EQ(SourcePushInto(*graph, 0, options, params, &rng, &workspace, &gu,
                           nullptr, &token)
                .code(),
            StatusCode::kCancelled);
  ExpectAccumulatorsClean(workspace);

  // The same query again reads the slots the aborted push had filled.
  SourceGraph after, fresh;
  QueryWorkspace fresh_workspace;
  Rng rng_after(2), rng_fresh(2);
  ASSERT_TRUE(SourcePushInto(*graph, 0, options, params, &rng_after,
                             &workspace, &after, nullptr)
                  .ok());
  ASSERT_TRUE(SourcePushInto(*graph, 0, options, params, &rng_fresh,
                             &fresh_workspace, &fresh, nullptr)
                  .ok());
  ExpectAccumulatorsClean(workspace);
  ASSERT_EQ(fresh.Level(2).size(), kLeaves);
  ASSERT_EQ(fresh.num_attention(), fresh.TotalNodeOccurrences());
  ExpectSameSourceGraph(after, fresh);
}

}  // namespace
}  // namespace simpush
