// Tests for the SimRank similarity join and global top-pairs scan.

#include "reference/graphs.h"
#include "simpush/join.h"

#include <set>

#include "exact/power_method.h"
#include "graph/generators.h"
#include "gtest/gtest.h"

namespace simpush {
namespace {

JoinOptions TestOptions(double epsilon = 0.01) {
  JoinOptions options;
  options.query.epsilon = epsilon;
  options.query.walk_budget_cap = 5000;
  options.query.seed = 5;
  options.num_threads = 2;
  return options;
}

TEST(JoinTest, ValidatesArguments) {
  auto graph = GenerateErdosRenyi(30, 150, 3);
  ASSERT_TRUE(graph.ok());
  EXPECT_FALSE(SimilarityJoin(*graph, 0.0, TestOptions()).ok());
  EXPECT_FALSE(SimilarityJoin(*graph, 1.5, TestOptions()).ok());
  EXPECT_FALSE(TopPairs(*graph, 0, TestOptions()).ok());
  JoinOptions bad = TestOptions();
  bad.max_pairs = 0;
  EXPECT_FALSE(SimilarityJoin(*graph, 0.1, bad).ok());
}

TEST(JoinTest, PairsAreCanonicalAndSorted) {
  auto graph = GenerateStochasticBlockModel(100, 5, 0.3, 0.01, 7);
  ASSERT_TRUE(graph.ok());
  auto pairs = SimilarityJoin(*graph, 0.05, TestOptions());
  ASSERT_TRUE(pairs.ok());
  ASSERT_FALSE(pairs->empty());
  std::set<std::pair<NodeId, NodeId>> seen;
  for (size_t i = 0; i < pairs->size(); ++i) {
    const SimilarPair& pair = (*pairs)[i];
    EXPECT_LT(pair.u, pair.v) << "canonical order";
    EXPECT_TRUE(seen.emplace(pair.u, pair.v).second) << "no duplicates";
    if (i > 0) {
      EXPECT_LE(pair.score, (*pairs)[i - 1].score) << "descending";
    }
    EXPECT_GE(pair.score, 0.05 - TestOptions().query.epsilon - 1e-12);
  }
}

TEST(JoinTest, BlockStructureDominatesJoin) {
  // In an SBM with strong, small communities (block size 20, in-degree
  // ~6, so within-block SimRank ~ c/6), high-SimRank pairs should be
  // overwhelmingly within-block.
  auto graph = GenerateStochasticBlockModel(120, 6, 0.3, 0.002, 11);
  ASSERT_TRUE(graph.ok());
  auto pairs = SimilarityJoin(*graph, 0.08, TestOptions());
  ASSERT_TRUE(pairs.ok());
  ASSERT_GT(pairs->size(), 10u);
  size_t within = 0;
  for (const SimilarPair& pair : *pairs) {
    if (pair.u / 20 == pair.v / 20) ++within;
  }
  EXPECT_GT(static_cast<double>(within) / pairs->size(), 0.9);
}

TEST(JoinTest, CompleteAgainstExactGroundTruth) {
  // Every pair with exact s >= threshold must be found: |s̃ - s| <= ε
  // (Definition 1) puts its s̃ at or above the threshold - ε margin
  // w.p. 1-δ per source.
  auto graph = GenerateErdosRenyi(50, 400, 13);
  ASSERT_TRUE(graph.ok());
  PowerMethodOptions pm;
  auto exact = ComputeExactSimRank(*graph, pm);
  ASSERT_TRUE(exact.ok());

  const double threshold = 0.05;
  auto pairs = SimilarityJoin(*graph, threshold, TestOptions(0.01));
  ASSERT_TRUE(pairs.ok());
  std::set<std::pair<NodeId, NodeId>> found;
  for (const SimilarPair& pair : *pairs) found.emplace(pair.u, pair.v);

  for (NodeId u = 0; u < graph->num_nodes(); ++u) {
    for (NodeId v = u + 1; v < graph->num_nodes(); ++v) {
      if ((*exact)(u, v) >= threshold) {
        EXPECT_TRUE(found.count({u, v}))
            << "missed pair (" << u << ", " << v << ") with s="
            << (*exact)(u, v);
      }
    }
  }
}

TEST(JoinTest, HigherThresholdIsSubset) {
  auto graph = GenerateStochasticBlockModel(120, 4, 0.25, 0.01, 17);
  ASSERT_TRUE(graph.ok());
  auto loose = SimilarityJoin(*graph, 0.05, TestOptions());
  auto tight = SimilarityJoin(*graph, 0.15, TestOptions());
  ASSERT_TRUE(loose.ok() && tight.ok());
  EXPECT_LE(tight->size(), loose->size());
  std::set<std::pair<NodeId, NodeId>> loose_set;
  for (const SimilarPair& pair : *loose) loose_set.emplace(pair.u, pair.v);
  for (const SimilarPair& pair : *tight) {
    EXPECT_TRUE(loose_set.count({pair.u, pair.v}))
        << "(" << pair.u << ", " << pair.v << ")";
  }
}

TEST(JoinTest, MaxPairsAborts) {
  auto graph = GenerateStochasticBlockModel(100, 2, 0.5, 0.05, 3);
  ASSERT_TRUE(graph.ok());
  JoinOptions options = TestOptions();
  options.max_pairs = 5;
  auto pairs = SimilarityJoin(*graph, 0.02, options);
  EXPECT_FALSE(pairs.ok());
  EXPECT_EQ(pairs.status().code(), StatusCode::kOutOfRange);
}

TEST(JoinTest, TopPairsMatchesJoinPrefix) {
  auto graph = GenerateStochasticBlockModel(100, 5, 0.3, 0.01, 7);
  ASSERT_TRUE(graph.ok());
  auto top = TopPairs(*graph, 10, TestOptions());
  ASSERT_TRUE(top.ok());
  ASSERT_EQ(top->size(), 10u);
  // Same scan with a permissive threshold must rank the same leaders.
  auto all = SimilarityJoin(*graph, 0.02, TestOptions());
  ASSERT_TRUE(all.ok());
  ASSERT_GE(all->size(), 10u);
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_EQ((*top)[i].u, (*all)[i].u) << "rank " << i;
    EXPECT_EQ((*top)[i].v, (*all)[i].v) << "rank " << i;
    EXPECT_DOUBLE_EQ((*top)[i].score, (*all)[i].score);
  }
}

TEST(JoinTest, TopPairsOnTinyGraphReturnsAllPairs) {
  auto cycle = GenerateCycle(6);
  ASSERT_TRUE(cycle.ok());
  auto top = TopPairs(*cycle, 100, TestOptions());
  ASSERT_TRUE(top.ok());
  // At most C(6,2) = 15 pairs exist; many score 0 and are never emitted.
  EXPECT_LE(top->size(), 15u);
}

}  // namespace
}  // namespace simpush
