// Tests for the batch query shapes: ParallelQueryBatch driven the way a
// single-threaded batch caller drives it, and ParallelQueryBatchTopK.

#include <atomic>

#include "gtest/gtest.h"
#include "simpush/parallel.h"
#include "simpush/topk.h"
#include "test_util.h"

namespace simpush {
namespace {

using testing_util::FanOut;

SimPushOptions FastOptions() {
  SimPushOptions options;
  options.epsilon = 0.05;
  options.walk_budget_cap = 20000;
  return options;
}

TEST(BatchTest, ProcessesAllQueries) {
  Graph g = testing_util::RandomGraph(100, 800, 801);
  FanOut fan_out(g, FastOptions(), 2);
  std::vector<NodeId> queries{1, 5, 9, 13};
  std::atomic<size_t> seen{0};
  ParallelBatchStats stats = fan_out.Run(
      queries, [&](size_t i, const SimPushResult& result) {
        EXPECT_EQ(result.scores.size(), g.num_nodes());
        EXPECT_DOUBLE_EQ(result.scores[queries[i]], 1.0);
        seen.fetch_add(1);
        return true;
      });
  EXPECT_EQ(seen.load(), 4u);
  EXPECT_EQ(stats.queries_ok, 4u);
  EXPECT_EQ(stats.queries_failed, 0u);
  EXPECT_GT(stats.wall_seconds, 0.0);
  EXPECT_GT(stats.cpu_query_seconds, 0.0);
}

TEST(BatchTest, SkipsInvalidQueries) {
  Graph g = testing_util::MakeFixtureGraph();
  FanOut fan_out(g, FastOptions(), 1);
  std::vector<NodeId> queries{1, 9999, 3};
  size_t seen = 0;
  ParallelBatchStats stats =
      fan_out.Run(queries, [&seen](size_t, const SimPushResult&) {
        ++seen;
        return true;
      });
  EXPECT_EQ(seen, 2u);
  EXPECT_EQ(stats.queries_ok, 2u);
  EXPECT_EQ(stats.queries_failed, 1u);
}

TEST(BatchTest, CallbackCanAbortEarly) {
  // One worker runs the whole batch as one chunk, in query order, so
  // the stop after the second result is exact.
  Graph g = testing_util::MakeFixtureGraph();
  FanOut fan_out(g, FastOptions(), 1);
  std::vector<NodeId> queries{0, 1, 2, 3, 4};
  size_t seen = 0;
  ParallelBatchStats stats =
      fan_out.Run(queries, [&seen](size_t, const SimPushResult&) {
        ++seen;
        return seen < 2;
      });
  EXPECT_EQ(seen, 2u);
  EXPECT_EQ(stats.queries_ok, 2u);
}

TEST(BatchTest, BatchTopKMatchesSingleQueries) {
  Graph g = testing_util::RandomGraph(120, 1000, 803);
  FanOut fan_out(g, FastOptions(), 2);
  std::vector<NodeId> queries{2, 40};
  auto batch = fan_out.TopK(queries, 5);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->size(), 2u);
  for (const BatchTopKResult& entry : *batch) {
    EXPECT_LE(entry.topk.size(), 5u);
    for (size_t i = 1; i < entry.topk.size(); ++i) {
      EXPECT_GE(entry.topk[i - 1].score, entry.topk[i].score);
    }
    // The same entries a single top-k query selects.
    QueryWorkspace workspace;
    QueryRunner runner(fan_out.core, &workspace);
    auto single = QueryTopK(&runner, entry.query, 5);
    ASSERT_TRUE(single.ok());
    ASSERT_EQ(single->entries.size(), entry.topk.size());
    for (size_t i = 0; i < entry.topk.size(); ++i) {
      EXPECT_EQ(single->entries[i].node, entry.topk[i].node);
      EXPECT_EQ(single->entries[i].score, entry.topk[i].score);
    }
  }
}

TEST(BatchTest, AllInvalidReturnsError) {
  Graph g = testing_util::MakeFixtureGraph();
  auto batch = FanOut(g, FastOptions(), 2).TopK({999, 1000}, 5);
  EXPECT_FALSE(batch.ok());
}

TEST(BatchTest, EmptyBatchIsEmptySuccess) {
  Graph g = testing_util::MakeFixtureGraph();
  auto batch = FanOut(g, FastOptions(), 2).TopK({}, 5);
  ASSERT_TRUE(batch.ok());
  EXPECT_TRUE(batch->empty());
}

}  // namespace
}  // namespace simpush
