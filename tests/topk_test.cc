// Tests for the top-k query layer.

#include "gtest/gtest.h"
#include "simpush/simpush.h"
#include "simpush/topk.h"
#include "test_util.h"

namespace simpush {
namespace {

SimPushOptions FastOptions() {
  SimPushOptions options;
  options.epsilon = 0.02;
  options.walk_budget_cap = 30000;
  return options;
}

TEST(TopKQueryTest, EntriesSortedAndExcludeQuery) {
  Graph g = testing_util::RandomGraph(150, 1200, 601);
  SimPushEngine engine(g, FastOptions());
  auto result = QueryTopK(&engine.runner(), 7, 10);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result->entries.size(), 10u);
  for (size_t i = 0; i < result->entries.size(); ++i) {
    EXPECT_NE(result->entries[i].node, 7u);
    EXPECT_GT(result->entries[i].score, 0.0);
    if (i > 0) {
      EXPECT_GE(result->entries[i - 1].score, result->entries[i].score);
    }
  }
  EXPECT_GE(result->stats.max_level, 1u);
}

TEST(TopKQueryTest, MatchesFullQueryRanking) {
  Graph g = testing_util::MakeFixtureGraph();
  SimPushEngine engine_full(g, FastOptions());
  auto full = engine_full.Query(3);
  ASSERT_TRUE(full.ok());

  SimPushEngine engine_topk(g, FastOptions());
  auto topk = QueryTopK(&engine_topk.runner(), 3, 5);
  ASSERT_TRUE(topk.ok());
  // Scores of the top entries must match the full vector's values
  // (same options + same seed => identical runs).
  for (const TopKEntry& entry : topk->entries) {
    EXPECT_DOUBLE_EQ(entry.score, full->scores[entry.node]);
  }
}

TEST(TopKQueryTest, AgreesWithExactTopK) {
  Graph g = testing_util::RandomGraph(120, 1000, 603);
  SimRankMatrix exact = testing_util::ExactSimRank(g);
  SimPushOptions options;
  options.epsilon = 0.005;
  options.walk_budget_cap = 50000;
  SimPushEngine engine(g, options);
  auto topk = QueryTopK(&engine.runner(), 11, 10);
  ASSERT_TRUE(topk.ok());
  // Every returned entry's exact value is within ε of its estimate.
  for (const TopKEntry& entry : topk->entries) {
    EXPECT_NEAR(entry.score, exact(11, entry.node), 0.005);
  }
}

TEST(TopKQueryTest, KLargerThanPositiveSet) {
  Graph g = testing_util::MakeGraph(4, {{1, 0}, {2, 0}});  // tiny reach
  SimPushEngine engine(g, FastOptions());
  auto result = QueryTopK(&engine.runner(), 1, 100);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result->entries.size(), 3u);
}

TEST(TopKQueryTest, InvalidQueryPropagatesError) {
  Graph g = testing_util::MakeFixtureGraph();
  SimPushEngine engine(g, FastOptions());
  EXPECT_FALSE(QueryTopK(&engine.runner(), 99, 5).ok());
}

TEST(SelectTopKTest, PositiveScoresDescendingTiesToSmallerId) {
  const std::vector<double> scores = {0.5, 0.0, 0.2, 1.0, 0.2, 0.7};
  const std::vector<TopKEntry> top = SelectTopK(scores, 10, /*exclude=*/3);
  // Node 3 is excluded and zero-score node 1 is never reported.
  ASSERT_EQ(top.size(), 4u);
  const NodeId expected[] = {5, 0, 2, 4};
  for (size_t i = 0; i < top.size(); ++i) {
    EXPECT_EQ(top[i].node, expected[i]) << "rank " << i;
    EXPECT_EQ(top[i].score, scores[expected[i]]) << "rank " << i;
  }
  EXPECT_EQ(SelectTopK(scores, 2, 3).size(), 2u);
  EXPECT_TRUE(SelectTopK(scores, 0, 3).empty());
}

}  // namespace
}  // namespace simpush
