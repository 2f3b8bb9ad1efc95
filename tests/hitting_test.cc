// Tests for Algorithm 3 (hitting probabilities between attention nodes
// within G_u), cross-checked against a brute-force DP over G_u.

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/deadline.h"
#include "gtest/gtest.h"
#include "reference/graphs.h"
#include "simpush/hitting.h"
#include "simpush/options.h"
#include "simpush/source_push.h"
#include "simpush/workspace.h"
#include "test_util.h"

namespace simpush {
namespace {

struct Fixture {
  Graph graph;
  SourceGraph gu;
  DerivedParams params;
  HittingTable table;  ///< Algorithm 3 over gu on a fresh workspace.
};

Fixture MakeFixture(const Graph& graph, NodeId u, double eps,
                    uint64_t seed = 1) {
  Fixture f{graph, {}, {}, {}};
  SimPushOptions options;
  options.epsilon = eps;
  options.walk_budget_cap = 20000;
  options.use_level_detection = false;
  f.params = ComputeDerivedParams(options);
  Rng rng(seed);
  QueryWorkspace workspace;
  EXPECT_TRUE(SourcePushInto(f.graph, u, options, f.params, &rng, &workspace,
                             &f.gu, nullptr)
                  .ok());
  EXPECT_TRUE(ComputeHittingTable(f.graph, f.gu, f.params.sqrt_c, &workspace,
                                  &f.table)
                  .ok());
  return f;
}

// Brute-force h̃^(i)(v, target) for a fixed attention occurrence: DP
// from the target's level down to v's level using Eq. 12 directly.
double BruteForceHitting(const Graph& graph, const SourceGraph& gu,
                         uint32_t from_level, NodeId from_node,
                         AttentionId target, double sqrt_c) {
  const AttentionNode& t = gu.attention_nodes()[target];
  if (t.level < from_level) return 0.0;
  if (t.level == from_level) {
    return t.node == from_node ? 1.0 : 0.0;
  }
  // values[node] = h̃^(t.level - l)(node, target) for nodes at level l.
  std::unordered_map<NodeId, double> values;
  values.emplace(t.node, 1.0);
  for (uint32_t l = t.level; l > from_level; --l) {
    std::unordered_map<NodeId, double> next;
    const std::vector<NodeId>& members = gu.Level(l);
    for (const NodeId node : gu.Level(l - 1)) {
      const uint32_t deg = graph.InDegree(node);
      if (deg == 0) continue;
      double acc = 0;
      for (NodeId vp : graph.InNeighbors(node)) {
        // vp is at level l of G_u iff it carries probability mass there.
        if (!std::binary_search(members.begin(), members.end(), vp)) {
          continue;
        }
        auto it = values.find(vp);
        if (it != values.end()) acc += it->second;
      }
      if (acc != 0.0) next.emplace(node, sqrt_c * acc / deg);
    }
    values = std::move(next);
  }
  auto it = values.find(from_node);
  return it == values.end() ? 0.0 : it->second;
}

TEST(HittingTest, MatchesBruteForceOnFixtureGraph) {
  Graph g = testing_util::MakeFixtureGraph();
  Fixture f = MakeFixture(g, 0, 0.02);
  const HittingTable& table = f.table;
  for (AttentionId source = 0; source < f.gu.num_attention(); ++source) {
    const AttentionNode& w = f.gu.attention_nodes()[source];
    for (AttentionId target = 0; target < f.gu.num_attention(); ++target) {
      const AttentionNode& t = f.gu.attention_nodes()[target];
      if (t.level <= w.level) continue;
      const double expected = BruteForceHitting(
          f.graph, f.gu, w.level, w.node, target, f.params.sqrt_c);
      EXPECT_NEAR(table.Probability(w.level, w.node, target), expected, 1e-10)
          << "from (" << w.level << "," << w.node << ") to (" << t.level
          << "," << t.node << ")";
    }
  }
}

TEST(HittingTest, MatchesBruteForceOnRandomGraphs) {
  for (uint64_t seed : {51u, 52u, 53u}) {
    Graph g = testing_util::RandomGraph(80, 500, seed);
    Fixture f = MakeFixture(g, static_cast<NodeId>(seed % 80), 0.05, seed);
    const HittingTable& table = f.table;
    for (AttentionId source = 0; source < f.gu.num_attention(); ++source) {
      const AttentionNode& w = f.gu.attention_nodes()[source];
      for (AttentionId target = 0; target < f.gu.num_attention(); ++target) {
        const AttentionNode& t = f.gu.attention_nodes()[target];
        if (t.level <= w.level) continue;
        const double expected = BruteForceHitting(
            f.graph, f.gu, w.level, w.node, target, f.params.sqrt_c);
        EXPECT_NEAR(table.Probability(w.level, w.node, target), expected,
                    1e-10);
      }
    }
  }
}

TEST(HittingTest, SelfEntriesPresentForDeepAttention) {
  Graph g = testing_util::MakeFixtureGraph();
  Fixture f = MakeFixture(g, 0, 0.02);
  const HittingTable& table = f.table;
  for (AttentionId id = 0; id < f.gu.num_attention(); ++id) {
    const AttentionNode& w = f.gu.attention_nodes()[id];
    if (w.level >= 2) {
      EXPECT_DOUBLE_EQ(table.Probability(w.level, w.node, id), 1.0);
    }
  }
}

TEST(HittingTest, VectorsSortedById) {
  Graph g = testing_util::RandomGraph(60, 400, 61);
  Fixture f = MakeFixture(g, 3, 0.05, 61);
  const HittingTable& table = f.table;
  for (uint32_t level = 1; level <= f.gu.max_level(); ++level) {
    for (const NodeId node : f.gu.Level(level)) {
      const HittingVector& vec = table.VectorAt(level, node);
      for (size_t i = 1; i < vec.size(); ++i) {
        EXPECT_LT(vec[i - 1].first, vec[i].first);
      }
      for (const auto& [target, p] : vec) {
        (void)target;
        EXPECT_GT(p, 0.0);
        EXPECT_LE(p, 1.0 + 1e-12);
      }
    }
  }
}

TEST(HittingTest, EmptyWhenMaxLevelBelowTwo) {
  // Star spokes at level 1 only: no level-2+ targets, table empty.
  auto star = GenerateStar(5);
  ASSERT_TRUE(star.ok());
  SimPushOptions options;
  options.epsilon = 0.3;  // Big epsilon: L* is tiny.
  options.use_level_detection = false;
  const DerivedParams params = ComputeDerivedParams(options);
  Rng rng(1);
  QueryWorkspace workspace;
  SourceGraph gu;
  ASSERT_TRUE(SourcePushInto(*star, 0, options, params, &rng, &workspace,
                             &gu, nullptr)
                  .ok());
  if (gu.max_level() < 2) {
    HittingTable table;
    ASSERT_TRUE(
        ComputeHittingTable(*star, gu, params.sqrt_c, &workspace, &table)
            .ok());
    EXPECT_EQ(table.NumVectors(), 0u);
    EXPECT_EQ(table.NumEntries(), 0u);
  }
}

TEST(HittingTest, DanglingAttentionNodeStillExportsSelfEntry) {
  // Regression test: an attention node with no in-neighbors (common in
  // Barabási–Albert tails) must still publish its h̃^(0) = 1 self entry
  // so shallower nodes can compute meeting probabilities through it.
  //   4 -> 3 -> 2 -> 1 -> 0, node 4 dangling; query u = 0 makes every
  //   chain node an attention node at its level.
  Graph g = testing_util::MakeGraph(
      5, {{4, 3}, {3, 2}, {2, 1}, {1, 0}});
  Fixture f = MakeFixture(g, 0, 0.05);
  ASSERT_GE(f.gu.max_level(), 4u);
  const HittingTable& table = f.table;
  AttentionId deep_id;
  ASSERT_TRUE(f.gu.LookupAttention(4, 4, &deep_id));
  // Node 3 at level 3 must see node 4's self entry one step away.
  EXPECT_NEAR(table.Probability(3, 3, deep_id), f.params.sqrt_c, 1e-12);
  // And the dangling node's own self entry exists.
  EXPECT_DOUBLE_EQ(table.Probability(4, 4, deep_id), 1.0);
}

// The hitting table by Algorithm 3's definition: level ℓ pulls, for
// every member v of G_u's level ℓ in ascending order, the level-(ℓ+1)
// vectors of v's in-neighbors in in-row order, each scaled by
// √c/d_I(v); an attention occurrence at level >= 2 adds its self entry.
using NaiveLevel = std::map<NodeId, std::vector<HittingEntry>>;

std::vector<NaiveLevel> NaiveHittingTable(const Graph& graph,
                                          const SourceGraph& gu,
                                          double sqrt_c) {
  const uint32_t max_level = gu.max_level();
  std::vector<NaiveLevel> table(max_level + 1);
  if (max_level < 2) return table;
  for (const AttentionId id : gu.AttentionOnLevel(max_level)) {
    table[max_level][gu.attention_nodes()[id].node] = {{id, 1.0}};
  }
  for (uint32_t level = max_level - 1; level >= 1; --level) {
    const NaiveLevel& above = table[level + 1];
    for (const NodeId v : gu.Level(level)) {
      std::map<AttentionId, double> sums;
      const uint32_t deg = graph.InDegree(v);
      for (const NodeId w : graph.InNeighbors(v)) {
        const auto it = above.find(w);
        if (it == above.end()) continue;
        for (const auto& [target, p] : it->second) {
          sums[target] += p * (sqrt_c / deg);
        }
      }
      AttentionId self = 0;
      if (level >= 2 && gu.LookupAttention(level, v, &self)) sums[self] = 1.0;
      if (!sums.empty()) {
        table[level][v].assign(sums.begin(), sums.end());
      }
    }
    if (level == 1) break;
  }
  return table;
}

// Which directions the levels of the checked tables took.
struct Directions {
  bool pull = false;
  bool push = false;
};

// Compares ComputeHittingTable (one reused workspace) with the naive
// table on (node, id, probability bits) for every source in `sources`,
// and records the direction the rule in hitting.h gives each level
// that has holders.
void ExpectHittingEqualsNaive(const Graph& graph,
                              const std::vector<NodeId>& sources, double eps,
                              bool detection, Directions* directions) {
  SimPushOptions options;
  options.epsilon = eps;
  options.use_level_detection = detection;
  const DerivedParams params = ComputeDerivedParams(options);
  QueryWorkspace workspace;
  SourceGraph gu;
  HittingTable table;
  for (const NodeId u : sources) {
    Rng rng(u);
    ASSERT_TRUE(SourcePushInto(graph, u, options, params, &rng, &workspace,
                               &gu, nullptr)
                    .ok());
    ASSERT_TRUE(
        ComputeHittingTable(graph, gu, params.sqrt_c, &workspace, &table)
            .ok());
    const std::vector<NaiveLevel> want =
        NaiveHittingTable(graph, gu, params.sqrt_c);
    size_t vectors = 0, entries = 0;
    for (uint32_t level = 1; level <= gu.max_level(); ++level) {
      for (const auto& [v, expected] : want[level]) {
        ++vectors;
        entries += expected.size();
        const HittingVector got = table.VectorAt(level, v);
        ASSERT_EQ(got.size(), expected.size())
            << "u " << u << " level " << level << " node " << v;
        for (size_t i = 0; i < expected.size(); ++i) {
          ASSERT_EQ(got[i].first, expected[i].first)
              << "u " << u << " level " << level << " node " << v;
          ASSERT_EQ(std::bit_cast<uint64_t>(got[i].second),
                    std::bit_cast<uint64_t>(expected[i].second))
              << "u " << u << " level " << level << " node " << v
              << " target " << expected[i].first;
        }
      }
    }
    ASSERT_EQ(table.NumVectors(), vectors) << "u " << u;
    ASSERT_EQ(table.NumEntries(), entries) << "u " << u;
    for (uint32_t level = 1; level < gu.max_level(); ++level) {
      if (want[level + 1].empty()) continue;
      uint64_t member_edges = 0, holder_edges = 0;
      for (const NodeId v : gu.Level(level)) member_edges += graph.InDegree(v);
      for (const auto& [w, vec] : want[level + 1]) {
        (void)vec;
        holder_edges += graph.OutDegree(w);
      }
      if (member_edges <= kHittingPushEdgeCost * holder_edges) {
        directions->pull = true;
      } else {
        directions->push = true;
      }
    }
  }
}

TEST(HittingTest, PullAndPushLevelsEqualNaivePullBitForBit) {
  // A funnel with duplicate edges, a self-loop and a dangling attention
  // node: from u = 0, node 10 (no in-edges) is attention at level 3.
  GraphBuilder funnel(12);
  for (NodeId i = 1; i <= 8; ++i) {
    funnel.AddEdge(i, 0);
    for (int dup = 0; dup < 5; ++dup) funnel.AddEdge(9, i);
  }
  funnel.AddEdge(9, 9);
  funnel.AddEdge(10, 9);
  auto funnel_graph = std::move(funnel).Build(/*dedupe=*/false);
  // A comb whose pushed level 1 merges five holder spans into one
  // receiver: from u = 0, R = 1 is level 1 (130 in-edges: H_2..H_6 and
  // 125 leaves) and T = 7 the level-3 attention node feeding every H_i.
  // The H_i have in-degrees 1, 2, 3, 5 and 7, so R's sum of the five
  // addends rounds differently in reverse holder order.
  GraphBuilder comb(200);
  comb.AddEdge(1, 0);
  NodeId leaf = 8;
  const uint32_t in_degrees[] = {1, 2, 3, 5, 7};
  for (NodeId i = 0; i < 5; ++i) {
    comb.AddEdge(2 + i, 1);
    comb.AddEdge(7, 2 + i);
    for (uint32_t k = 1; k < in_degrees[i]; ++k) comb.AddEdge(leaf++, 2 + i);
  }
  while (leaf < 8 + 13 + 125) comb.AddEdge(leaf++, 1);
  auto comb_graph = std::move(comb).Build();
  auto complete = GenerateComplete(40);
  auto star = GenerateStar(300, /*bidirectional=*/true);
  auto grid = GenerateGrid(3, 3);
  auto chung_lu = GenerateChungLu(2000, 16000, 2.2, 5);
  auto chung_lu_20k = GenerateChungLu(20000, 160000, 2.2, 7);
  ASSERT_TRUE(funnel_graph.ok() && comb_graph.ok() && complete.ok() &&
              star.ok() && grid.ok() && chung_lu.ok() && chung_lu_20k.ok());
  ASSERT_EQ(comb_graph->InDegree(1), 130u);

  const std::pair<const char*, const Graph*> kZoo[] = {
      {"funnel", &*funnel_graph}, {"comb", &*comb_graph},
      {"complete", &*complete},   {"star", &*star},
      {"grid", &*grid},           {"chung_lu", &*chung_lu},
      {"chung_lu_20k", &*chung_lu_20k}};
  Directions directions;
  for (const double eps : {0.05, 0.1}) {
    for (const bool detection : {true, false}) {
      for (const auto& [name, graph] : kZoo) {
        SCOPED_TRACE(std::string(name) + " eps " + std::to_string(eps) +
                     (detection ? " detection on" : " detection off"));
        std::vector<NodeId> sources;
        for (NodeId v = 0; v < graph->num_nodes() && v < 24; ++v) {
          sources.push_back(v);
        }
        ExpectHittingEqualsNaive(*graph, sources, eps, detection,
                                 &directions);
      }
    }
  }
  EXPECT_TRUE(directions.pull);
  EXPECT_TRUE(directions.push);
}

// (node, id, probability bits) of every vector of `a` equal `b`'s.
void ExpectTablesEqual(const SourceGraph& gu, const HittingTable& a,
                       const HittingTable& b) {
  ASSERT_EQ(a.NumVectors(), b.NumVectors());
  ASSERT_EQ(a.NumEntries(), b.NumEntries());
  for (uint32_t level = 1; level <= gu.max_level(); ++level) {
    for (const NodeId v : gu.Level(level)) {
      const HittingVector x = a.VectorAt(level, v);
      const HittingVector y = b.VectorAt(level, v);
      ASSERT_EQ(x.size(), y.size()) << "level " << level << " node " << v;
      for (size_t i = 0; i < x.size(); ++i) {
        EXPECT_EQ(x[i].first, y[i].first);
        EXPECT_EQ(std::bit_cast<uint64_t>(x[i].second),
                  std::bit_cast<uint64_t>(y[i].second));
      }
    }
  }
}

TEST(HittingTest, CancelDuringPushLevelLeavesWorkspaceClean) {
  // A broom: K members m_i -> 0, each with in-edges from the hub H and
  // four leaves of its own. From u = 0, level 1 is every m_i and H is
  // the only level-2 attention node (h = c/5); level 3 is empty. Level 1
  // then has 5K member in-edges against H's K out-edges and pushes.
  // From u2, fed by the first K/2 members only, level 1 pushes too
  // (5K/2 > 2K), and stale member marks from u would add receivers.
  constexpr NodeId kMembers = 1000;
  const NodeId hub = kMembers + 1;
  const NodeId u2 = hub + 1;
  GraphBuilder builder(u2 + 1 + 4 * kMembers);
  NodeId leaf = u2 + 1;
  for (NodeId m = 1; m <= kMembers; ++m) {
    builder.AddEdge(m, 0);
    if (m <= kMembers / 2) builder.AddEdge(m, u2);
    builder.AddEdge(hub, m);
    for (int i = 0; i < 4; ++i) builder.AddEdge(leaf++, m);
  }
  auto graph = std::move(builder).Build();
  ASSERT_TRUE(graph.ok());
  Fixture f = MakeFixture(*graph, 0, 0.05);
  ASSERT_TRUE(std::binary_search(f.gu.Level(2).begin(), f.gu.Level(2).end(),
                                 hub));
  ASSERT_GT(5 * kMembers, kHittingPushEdgeCost * graph->OutDegree(hub));
  ASSERT_GT(5 * kMembers / 2, kHittingPushEdgeCost * graph->OutDegree(hub));

  // Every level above 1 is holderless and polls nothing, so the first
  // poll of the cancelled token lands in level 1's out-row scan, after
  // kCancelCheckStride < K of H's out-edges.
  ASSERT_LT(kCancelCheckStride, kMembers);
  QueryWorkspace workspace;
  HittingTable table;
  CancelToken token;
  token.Cancel();
  EXPECT_EQ(ComputeHittingTable(*graph, f.gu, f.params.sqrt_c, &workspace,
                                &table, &token)
                .code(),
            StatusCode::kCancelled);
  EXPECT_EQ(table.NumVectors(), 1u);  // H's self entry; level 1 aborted.
  EXPECT_TRUE(table.VectorAt(1, 1).empty());

  // The reused workspace then builds what a fresh one does, bit for bit.
  for (const NodeId u : {u2, NodeId{0}}) {
    SCOPED_TRACE(u);
    Fixture g = MakeFixture(*graph, u, 0.05);
    HittingTable after, fresh;
    QueryWorkspace fresh_workspace;
    ASSERT_TRUE(
        ComputeHittingTable(*graph, g.gu, g.params.sqrt_c, &workspace, &after)
            .ok());
    ASSERT_TRUE(ComputeHittingTable(*graph, g.gu, g.params.sqrt_c,
                                    &fresh_workspace, &fresh)
                    .ok());
    EXPECT_GT(fresh.NumVectors(), 1u);
    ExpectTablesEqual(g.gu, after, fresh);
  }
}

TEST(HittingTest, ProbabilityLookupMissingReturnsZero) {
  Graph g = testing_util::MakeFixtureGraph();
  Fixture f = MakeFixture(g, 0, 0.02);
  const HittingTable& table = f.table;
  EXPECT_EQ(table.Probability(99, 0, 0), 0.0);
}

}  // namespace
}  // namespace simpush
