// Determinism regression tests: batch results must be bit-identical for
// any thread count, and identical whether an engine is fresh, reused
// across many queries, or owned by a parallel worker. The invariant
// behind all of it: a query's RNG stream is derived from
// (options.seed, query node) and per-query scratch never leaks state.

#include <map>
#include <vector>

#include "common/deadline.h"
#include "common/timer.h"
#include "graph/generators.h"
#include "gtest/gtest.h"
#include "simpush/engine_core.h"
#include "simpush/parallel.h"
#include "simpush/query_runner.h"
#include "simpush/simpush.h"
#include "simpush/source_push.h"
#include "simpush/workspace.h"
#include "test_util.h"

namespace simpush {
namespace {

SimPushOptions TestOptions() {
  SimPushOptions options;
  options.epsilon = 0.05;
  options.walk_budget_cap = 5000;
  options.seed = 1234;
  return options;
}

std::vector<NodeId> FirstNodes(size_t count) {
  std::vector<NodeId> queries(count);
  for (size_t i = 0; i < count; ++i) queries[i] = static_cast<NodeId>(i);
  return queries;
}

using ScoreTable = std::map<NodeId, std::vector<double>>;

ScoreTable RunBatch(const Graph& graph, const std::vector<NodeId>& queries,
                    size_t threads,
                    const SimPushOptions& options = TestOptions()) {
  testing_util::FanOut fan_out(graph, options, threads);
  std::vector<std::vector<double>> by_index(queries.size());
  auto stats =
      fan_out.Run(queries, [&](size_t i, const SimPushResult& result) {
        by_index[i] = result.scores;
        return true;
      });
  ScoreTable scores;
  for (size_t i = 0; i < queries.size(); ++i) {
    if (!by_index[i].empty()) scores[queries[i]] = std::move(by_index[i]);
  }
  // Guard against a vacuous pass: empty-vs-empty tables compare equal.
  EXPECT_EQ(stats.queries_ok, queries.size());
  EXPECT_EQ(scores.size(), queries.size());
  return scores;
}

void ExpectIdentical(const ScoreTable& a, const ScoreTable& b,
                     const char* label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (const auto& [u, scores] : a) {
    auto it = b.find(u);
    ASSERT_NE(it, b.end()) << label << " query " << u;
    ASSERT_EQ(scores.size(), it->second.size()) << label << " query " << u;
    for (size_t v = 0; v < scores.size(); ++v) {
      // Bit-identical, not approximately equal.
      ASSERT_EQ(scores[v], it->second[v])
          << label << " query " << u << " node " << v;
    }
  }
}

TEST(DeterminismTest, BatchBitIdenticalAcrossThreadCounts) {
  auto graph = GenerateChungLu(300, 1800, 2.4, 77);
  ASSERT_TRUE(graph.ok());
  const auto queries = FirstNodes(24);

  const ScoreTable with_one = RunBatch(*graph, queries, 1);
  const ScoreTable with_two = RunBatch(*graph, queries, 2);
  const ScoreTable with_eight = RunBatch(*graph, queries, 8);
  ExpectIdentical(with_one, with_two, "1-vs-2 threads");
  ExpectIdentical(with_one, with_eight, "1-vs-8 threads");
}

TEST(DeterminismTest, BatchMatchesPerQueryFreshEngines) {
  // A parallel batch (engines reused across each worker's chunk) must
  // produce exactly what one fresh engine per query produces.
  auto graph = GenerateChungLu(250, 1500, 2.5, 79);
  ASSERT_TRUE(graph.ok());
  const auto queries = FirstNodes(12);

  ScoreTable fresh;
  for (NodeId u : queries) {
    SimPushEngine engine(*graph, TestOptions());
    auto result = engine.Query(u);
    ASSERT_TRUE(result.ok());
    fresh[u] = result->scores;
  }
  const ScoreTable batched = RunBatch(*graph, queries, 3);
  ExpectIdentical(fresh, batched, "fresh-vs-batch");
}

TEST(DeterminismTest, EngineReuseIdenticalToFreshEngine) {
  // Same engine, same query, repeated: bit-identical each time, and
  // identical to a brand-new engine's answer (before/after reuse).
  auto graph = GenerateErdosRenyi(200, 1400, 81);
  ASSERT_TRUE(graph.ok());
  SimPushEngine reused(*graph, TestOptions());

  auto first = reused.Query(7);
  ASSERT_TRUE(first.ok());
  // Interleave other queries to dirty the workspace.
  for (NodeId u : {3u, 11u, 42u, 7u, 199u}) {
    ASSERT_TRUE(reused.Query(u).ok());
  }
  auto again = reused.Query(7);
  ASSERT_TRUE(again.ok());

  SimPushEngine fresh(*graph, TestOptions());
  auto from_fresh = fresh.Query(7);
  ASSERT_TRUE(from_fresh.ok());

  for (NodeId v = 0; v < graph->num_nodes(); ++v) {
    ASSERT_EQ(first->scores[v], again->scores[v]) << "node " << v;
    ASSERT_EQ(first->scores[v], from_fresh->scores[v]) << "node " << v;
  }
}

TEST(DeterminismTest, TopKBatchBitIdenticalAcrossThreadCounts) {
  auto graph = GenerateChungLu(300, 1800, 2.4, 83);
  ASSERT_TRUE(graph.ok());
  const auto queries = FirstNodes(16);

  auto run = [&](size_t threads) {
    testing_util::FanOut fan_out(*graph, TestOptions(), threads);
    ParallelBatchStats stats;
    auto results = fan_out.TopK(queries, 10, &stats);
    EXPECT_TRUE(results.ok());
    EXPECT_EQ(stats.queries_ok, queries.size());
    return std::move(results).value();
  };
  const auto with_one = run(1);
  const auto with_eight = run(8);
  ASSERT_EQ(with_one.size(), with_eight.size());
  for (size_t i = 0; i < with_one.size(); ++i) {
    ASSERT_EQ(with_one[i].query, with_eight[i].query);
    ASSERT_EQ(with_one[i].topk.size(), with_eight[i].topk.size());
    for (size_t j = 0; j < with_one[i].topk.size(); ++j) {
      ASSERT_EQ(with_one[i].topk[j].node, with_eight[i].topk[j].node);
      ASSERT_EQ(with_one[i].topk[j].score, with_eight[i].topk[j].score);
    }
  }
}

TEST(DeterminismTest, NeverFiringCancelTokenIsInvisible) {
  // The cancellation determinism contract (common/deadline.h): a token
  // that never fires must be invisible — the poll reads state only and
  // never advances the RNG, so scores are BIT-identical with and
  // without a token installed.
  auto graph = GenerateChungLu(300, 1800, 2.4, 91);
  ASSERT_TRUE(graph.ok());
  const EngineCore core(*graph, TestOptions());
  ASSERT_TRUE(core.options_status().ok());

  QueryWorkspace plain_scratch;
  QueryRunner plain(core, &plain_scratch);
  const CancelToken token(Deadline::After(60000));  // Never fires here.
  QueryWorkspace watched_scratch;
  QueryRunner watched(core, &watched_scratch, &token);
  // A served query's token also probes its connection; this client
  // stays open, so the probes never fire.
  testing_util::SocketPair sockets;
  const CancelToken peer_token(Deadline::Infinite(), sockets.ours);
  QueryWorkspace peer_scratch;
  QueryRunner peer_watched(core, &peer_scratch, &peer_token);

  SimPushResult expected, observed;
  size_t pull_levels = 0;
  for (const NodeId u : {0u, 7u, 42u, 123u, 299u}) {
    ASSERT_TRUE(plain.QueryInto(u, &expected).ok());
    for (QueryRunner* runner : {&watched, &peer_watched}) {
      ASSERT_TRUE(runner->QueryInto(u, &observed).ok());
      ASSERT_EQ(expected.scores.size(), observed.scores.size());
      for (size_t v = 0; v < expected.scores.size(); ++v) {
        ASSERT_EQ(expected.scores[v], observed.scores[v])
            << "query " << u << " node " << v;
      }
    }
    // The dense levels take Source-Push's pull path, whose poll
    // stride counts nodes rather than pushed occurrences.
    const SourceGraph& gu = plain_scratch.source_graph;
    for (uint32_t level = 0; level < gu.max_level(); ++level) {
      EdgeId in_edges = 0;
      for (const NodeId node : gu.Level(level)) {
        in_edges += graph->InDegree(node);
      }
      if (in_edges > graph->num_edges() / kPullEdgeFraction) ++pull_levels;
    }
  }
  EXPECT_GT(pull_levels, 0u);
  EXPECT_FALSE(token.cancelled());
  EXPECT_FALSE(peer_token.cancelled());
}

TEST(DeterminismTest, ExpiredDeadlineAbortsWithin50ms) {
  // An already-expired deadline must abort a query on a serving-sized
  // graph within 50ms — the engine polls its token every
  // kCancelCheckStride iterations in every stage, so the abort cannot
  // wait for a stage to finish.
  auto graph = GenerateChungLu(20000, 160000, 2.4, 93);
  ASSERT_TRUE(graph.ok());
  SimPushOptions options = TestOptions();
  options.walk_budget_cap = 100000;
  const EngineCore core(*graph, options);
  ASSERT_TRUE(core.options_status().ok());

  QueryWorkspace scratch;
  const CancelToken token(Deadline::Expired());
  // A client that hung up before the query started aborts it the same
  // way, as a cancellation.
  testing_util::SocketPair sockets;
  sockets.ClosePeer();
  const CancelToken hung_up(Deadline::Infinite(), sockets.ours);

  SimPushResult result;
  for (const auto& [fired, code] :
       {std::pair{&token, StatusCode::kDeadlineExceeded},
        std::pair{&hung_up, StatusCode::kCancelled}}) {
    QueryRunner runner(core, &scratch, fired);
    Timer timer;
    const Status status = runner.QueryInto(0, &result);
    const double elapsed_ms = timer.ElapsedSeconds() * 1e3;
    EXPECT_EQ(status.code(), code) << status.ToString();
    EXPECT_LT(elapsed_ms, 50.0);
  }

  // The aborted query leaves the workspace fully reusable: a new runner
  // without a token completes on the same scratch.
  QueryRunner recovered(core, &scratch);
  ASSERT_TRUE(recovered.QueryInto(0, &result).ok());
}

TEST(DeterminismTest, BatchedEqualsSerialBitIdentical) {
  // The batched SoA walk kernel's determinism bar: because every walk
  // draws from its own counter stream Rng::ForWalk(seed', u, i), the
  // thread count is a pure scheduling knob — the scores must be
  // BIT-identical for one thread and any thread count, on a
  // serving-sized graph. (The wave width is a kernel constant; walk_test
  // KernelMatchesSerialWalkerPerStream sweeps it against the serial
  // Walker.)
  auto graph = GenerateChungLu(20000, 160000, 2.4, 95);
  ASSERT_TRUE(graph.ok());
  const auto queries = FirstNodes(6);

  const ScoreTable serial = RunBatch(*graph, queries, 1);
  ExpectIdentical(serial, RunBatch(*graph, queries, 4), "1-vs-4 threads");
  ExpectIdentical(serial, RunBatch(*graph, queries, 8), "1-vs-8 threads");
}

TEST(DeterminismTest, UnfiredTokenInvisibleToBatchedKernel) {
  // Mid-batch cancellation polls happen between walk waves; a token
  // that never fires must leave batched results bit-identical. (A fired
  // token's abort path is covered by ExpiredDeadlineAbortsWithin50ms.)
  auto graph = GenerateChungLu(2000, 14000, 2.4, 97);
  ASSERT_TRUE(graph.ok());
  const auto run = [&](const CancelToken* token) {
    const EngineCore core(*graph, TestOptions());
    EXPECT_TRUE(core.options_status().ok());
    QueryWorkspace scratch;
    QueryRunner runner(core, &scratch, token);
    SimPushResult result;
    EXPECT_TRUE(runner.QueryInto(42, &result).ok());
    return result.scores;
  };
  const CancelToken token(Deadline::After(600000));  // Never fires here.
  const auto bare = run(nullptr);
  const auto watched = run(&token);
  ASSERT_EQ(bare.size(), watched.size());
  for (size_t v = 0; v < bare.size(); ++v) {
    ASSERT_EQ(bare[v], watched[v]) << "node " << v;
  }
  EXPECT_FALSE(token.cancelled());
}

TEST(DeterminismTest, SequentialBatchMatchesParallelBatch) {
  // One engine answering the batch sequentially and ParallelQueryBatch
  // must agree exactly: engine reuse is invisible to results.
  auto graph = GenerateChungLu(200, 1200, 2.3, 89);
  ASSERT_TRUE(graph.ok());
  const auto queries = FirstNodes(10);

  SimPushEngine engine(*graph, TestOptions());
  ScoreTable sequential;
  SimPushResult result;
  for (const NodeId u : queries) {
    ASSERT_TRUE(engine.QueryInto(u, &result).ok());
    sequential[u] = result.scores;
  }
  const ScoreTable parallel = RunBatch(*graph, queries, 4);
  ExpectIdentical(sequential, parallel, "sequential-vs-parallel");
}

}  // namespace
}  // namespace simpush
