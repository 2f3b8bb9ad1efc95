// Tests for parallel batch query execution.

#include "simpush/parallel.h"

#include <atomic>
#include <utility>
#include <vector>

#include "graph/generators.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace simpush {
namespace {

using testing_util::FanOut;

SimPushOptions TestOptions() {
  SimPushOptions options;
  options.epsilon = 0.05;
  options.walk_budget_cap = 5000;
  options.seed = 7;
  return options;
}

std::vector<NodeId> FirstNodes(size_t count) {
  std::vector<NodeId> queries(count);
  for (size_t i = 0; i < count; ++i) queries[i] = static_cast<NodeId>(i);
  return queries;
}

TEST(ParallelBatchTest, AllQueriesComplete) {
  auto graph = GenerateChungLu(400, 2400, 2.5, 3);
  ASSERT_TRUE(graph.ok());
  const auto queries = FirstNodes(16);
  std::vector<double> self_scores(queries.size(), -1.0);
  std::atomic<uint64_t> walks{0};
  FanOut fan_out(*graph, TestOptions(), /*threads=*/4);
  auto stats = fan_out.Run(queries, [&](size_t i, const SimPushResult& r) {
    self_scores[i] = r.scores[queries[i]];
    walks.fetch_add(r.stats.walks_sampled);
    return true;
  });
  EXPECT_EQ(stats.queries_ok, queries.size());
  EXPECT_EQ(stats.queries_failed, 0u);
  EXPECT_EQ(stats.num_threads, 4u);
  // Walk totals are summed from the chunk runners.
  EXPECT_GT(stats.walks_sampled, 0u);
  EXPECT_EQ(stats.walks_sampled, walks.load());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_DOUBLE_EQ(self_scores[i], 1.0)
        << "s(u,u) must be 1 for query " << queries[i];
  }
}

TEST(ParallelBatchTest, InvalidQueriesCountedNotFatal) {
  auto graph = GenerateErdosRenyi(50, 250, 3);
  ASSERT_TRUE(graph.ok());
  std::vector<NodeId> queries = {1, 2, 999, 3, 888};
  std::atomic<size_t> callbacks{0};
  FanOut fan_out(*graph, TestOptions(), 2);
  auto stats = fan_out.Run(queries, [&](size_t, const SimPushResult&) {
    callbacks.fetch_add(1);
    return true;
  });
  EXPECT_EQ(stats.queries_ok, 3u);
  EXPECT_EQ(stats.queries_failed, 2u);
  EXPECT_EQ(callbacks.load(), 3u);
}

TEST(ParallelBatchTest, ResultsIndependentOfThreadCount) {
  // Determinism contract: per-query RNG streams are keyed on
  // (seed, node), so any thread count produces identical scores.
  auto graph = GenerateChungLu(300, 1800, 2.4, 9);
  ASSERT_TRUE(graph.ok());
  const auto queries = FirstNodes(8);

  auto run = [&](size_t threads) {
    std::vector<std::vector<double>> scores(queries.size());
    FanOut fan_out(*graph, TestOptions(), threads);
    fan_out.Run(queries, [&](size_t i, const SimPushResult& result) {
      scores[i] = result.scores;
      return true;
    });
    return scores;
  };
  const auto with_one = run(1);
  const auto with_four = run(4);
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_FALSE(with_one[i].empty()) << "query " << queries[i];
    ASSERT_EQ(with_one[i].size(), with_four[i].size());
    for (size_t v = 0; v < with_one[i].size(); ++v) {
      ASSERT_DOUBLE_EQ(with_one[i][v], with_four[i][v])
          << "query " << queries[i] << " node " << v;
    }
  }
}

TEST(ParallelBatchTest, FiredTokenStopsTheFanOut) {
  // A token that fired before the batch starts: no chunk leases a
  // workspace, no query runs, and the pool is left untouched. The
  // token fires either by Cancel() or on the pool threads' first polls,
  // which all probe a client that hung up before the batch.
  auto graph = GenerateErdosRenyi(60, 300, 5);
  ASSERT_TRUE(graph.ok());
  CancelToken cancelled;
  cancelled.Cancel();
  testing_util::SocketPair sockets;
  sockets.ClosePeer();
  const CancelToken hung_up(Deadline::Infinite(), sockets.ours);
  for (const CancelToken* token : {&std::as_const(cancelled), &hung_up}) {
    FanOut fan_out(*graph, TestOptions(), 2);
    size_t callbacks = 0;
    auto stats = ParallelQueryBatch(
        fan_out.core, fan_out.thread_pool, fan_out.workspaces,
        FirstNodes(10),
        [&](size_t, const SimPushResult&) {
          ++callbacks;
          return true;
        },
        token);
    EXPECT_EQ(callbacks, 0u);
    EXPECT_EQ(stats.queries_ok, 0u);
    EXPECT_EQ(fan_out.workspaces.created(), 0u);
    auto topk = ParallelQueryBatchTopK(fan_out.core, fan_out.thread_pool,
                                       fan_out.workspaces, FirstNodes(10), 3,
                                       nullptr, token);
    EXPECT_EQ(topk.status().code(), StatusCode::kCancelled);
  }
}

TEST(ParallelBatchTopKTest, OrderedAndComplete) {
  auto graph = GenerateChungLu(400, 2400, 2.5, 5);
  ASSERT_TRUE(graph.ok());
  const auto queries = FirstNodes(10);
  ParallelBatchStats stats;
  auto results = FanOut(*graph, TestOptions(), 3).TopK(queries, 10, &stats);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), queries.size());
  EXPECT_EQ(stats.queries_ok, queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    // Results come back in query order.
    EXPECT_EQ((*results)[i].query, queries[i]);
    const auto& topk = (*results)[i].topk;
    EXPECT_LE(topk.size(), 10u);
    // Descending scores, query node excluded.
    for (size_t j = 1; j < topk.size(); ++j) {
      EXPECT_LE(topk[j].score, topk[j - 1].score);
    }
    for (const auto& [node, score] : topk) {
      EXPECT_NE(node, queries[i]);
      EXPECT_GT(score, 0.0);
    }
  }
}

TEST(ParallelBatchTopKTest, InvalidQueryFailsBatch) {
  auto graph = GenerateErdosRenyi(30, 120, 3);
  ASSERT_TRUE(graph.ok());
  std::vector<NodeId> queries = {1, 500};
  auto results = FanOut(*graph, TestOptions(), 2).TopK(queries, 5);
  EXPECT_FALSE(results.ok());
}

TEST(ParallelBatchTest, EmptyQuerySet) {
  auto graph = GenerateErdosRenyi(30, 120, 3);
  ASSERT_TRUE(graph.ok());
  auto stats = FanOut(*graph, TestOptions(), 2)
                   .Run({}, [](size_t, const SimPushResult&) { return true; });
  EXPECT_EQ(stats.queries_ok, 0u);
  EXPECT_EQ(stats.queries_failed, 0u);
}

}  // namespace
}  // namespace simpush
