// Tests for the top-k query layer.

#include <algorithm>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.h"
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
  std::vector<TopKEntry> top;
  SelectTopK(scores, 10, /*exclude=*/3, &top);
  // Node 3 is excluded and zero-score node 1 is never reported.
  ASSERT_EQ(top.size(), 4u);
  const NodeId expected[] = {5, 0, 2, 4};
  for (size_t i = 0; i < top.size(); ++i) {
    EXPECT_EQ(top[i].node, expected[i]) << "rank " << i;
    EXPECT_EQ(top[i].score, scores[expected[i]]) << "rank " << i;
  }
  SelectTopK(scores, 2, 3, &top);
  EXPECT_EQ(top.size(), 2u);
  SelectTopK(scores, 0, 3, &top);
  EXPECT_TRUE(top.empty());
}

// The selector before it became a bounded heap: collect every positive
// non-excluded node, then partial_sort. Kept as the reference the heap
// must reproduce entry for entry.
std::vector<TopKEntry> ReferenceSelectTopK(const std::vector<double>& scores,
                                           size_t k, NodeId exclude) {
  std::vector<NodeId> order;
  for (NodeId v = 0; v < scores.size(); ++v) {
    if (v != exclude && scores[v] > 0.0) order.push_back(v);
  }
  const size_t take = std::min(k, order.size());
  std::partial_sort(order.begin(), order.begin() + take, order.end(),
                    [&scores](NodeId a, NodeId b) {
                      if (scores[a] != scores[b]) {
                        return scores[a] > scores[b];
                      }
                      return a < b;
                    });
  std::vector<TopKEntry> entries;
  for (size_t i = 0; i < take; ++i) {
    entries.push_back({order[i], scores[order[i]]});
  }
  return entries;
}

// Random vectors drawn from a small value set, so ties are everywhere,
// with ±0.0, negatives, NaN and ±inf mixed in. The heap must match the
// partial_sort reference for every k, dense and as (id, score) pairs of
// the nonzero-bit scores, in ascending and in shuffled id order.
TEST(SelectTopKTest, BoundedHeapMatchesPartialSortReference) {
  const double kInf = std::numeric_limits<double>::infinity();
  const double kValues[] = {0.0,  -0.0, 0.5, 0.25, 0.25, 0.125, 1.0,
                            -0.5, kInf, -kInf, std::nan(""), 1e-300};
  Rng rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t n = 1 + rng.NextBounded(300);
    std::vector<double> scores(n);
    for (double& score : scores) {
      score = kValues[rng.NextBounded(std::size(kValues))];
    }
    const NodeId exclude = static_cast<NodeId>(rng.NextBounded(n + 1));
    std::vector<NodeId> ids;
    std::vector<double> values;
    for (NodeId v = 0; v < n; ++v) {
      uint64_t bits;
      std::memcpy(&bits, &scores[v], sizeof(bits));
      if (bits == 0) continue;
      ids.push_back(v);
      values.push_back(scores[v]);
    }
    std::vector<NodeId> shuffled_ids = ids;
    std::vector<double> shuffled_values = values;
    for (size_t i = ids.size(); i > 1; --i) {
      const size_t j = rng.NextBounded(i);
      std::swap(shuffled_ids[i - 1], shuffled_ids[j]);
      std::swap(shuffled_values[i - 1], shuffled_values[j]);
    }
    for (const size_t k : {size_t{0}, size_t{1}, size_t{10}, n}) {
      SCOPED_TRACE("trial " + std::to_string(trial) + " k " +
                   std::to_string(k));
      const std::vector<TopKEntry> expected =
          ReferenceSelectTopK(scores, k, exclude);
      std::vector<TopKEntry> top(2, TopKEntry{0, 3.0});  // Stale contents.
      SelectTopK(scores, k, exclude, &top);
      EXPECT_TRUE(testing_util::SameRanking(top, expected));
      top.assign(2, TopKEntry{0, 3.0});
      SelectTopK(ids, values, k, exclude, &top);
      EXPECT_TRUE(testing_util::SameRanking(top, expected));
      SelectTopK(shuffled_ids, shuffled_values, k, exclude, &top);
      EXPECT_TRUE(testing_util::SameRanking(top, expected));
    }
  }
}

}  // namespace
}  // namespace simpush
