// Tests for the QueryWorkspace subsystem: epoch-array semantics,
// workspace reuse correctness across many queries on
// one engine and across graphs of different sizes, and the
// zero-allocation steady state (this binary links
// the counting operator new/delete from common/alloc_hook.cc).

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/epoch_array.h"
#include "common/memory.h"
#include "graph/generators.h"
#include "gtest/gtest.h"
#include "simpush/simpush.h"
#include "simpush/workspace.h"
#include "test_util.h"

namespace simpush {
namespace {

TEST(EpochArrayTest, NewEpochClearsLogically) {
  EpochArray<double> array;
  array.Resize(8);
  array.BeginEpoch();
  EXPECT_FALSE(array.IsSet(3));
  EXPECT_EQ(array.Get(3), 0.0);
  array.Set(3, 2.5);
  EXPECT_TRUE(array.IsSet(3));
  EXPECT_EQ(array.Get(3), 2.5);
  array.BeginEpoch();
  EXPECT_FALSE(array.IsSet(3));
  EXPECT_EQ(array.Get(3), 0.0);
}

TEST(EpochArrayTest, RefInitializesStaleSlot) {
  EpochArray<double> array;
  array.Resize(4);
  array.BeginEpoch();
  array.Set(1, 9.0);
  array.BeginEpoch();
  array.Ref(1) += 2.0;  // Stale 9.0 must not leak through.
  EXPECT_EQ(array.Get(1), 2.0);
  array.Ref(1) += 3.0;
  EXPECT_EQ(array.Get(1), 5.0);
}

TEST(EpochArrayTest, ResizePreservesAndGrows) {
  EpochArray<uint32_t> array;
  array.Resize(2);
  array.BeginEpoch();
  array.Set(1, 7);
  array.Resize(16);
  EXPECT_TRUE(array.IsSet(1));
  EXPECT_EQ(array.Get(1), 7u);
  EXPECT_FALSE(array.IsSet(10));
  array.Resize(4);  // Never shrinks.
  EXPECT_EQ(array.size(), 16u);
}

TEST(WorkspaceReuseTest, ManyQueriesMatchFreshEngineExactly) {
  // >= 3 queries on one engine must match a fresh engine's answer for
  // every query, bit for bit — workspace reuse is invisible.
  Graph g = testing_util::RandomGraph(150, 1050, 53);
  SimPushOptions options;
  options.epsilon = 0.05;
  options.walk_budget_cap = 5000;

  SimPushEngine reused(g, options);
  const std::vector<NodeId> queries = {5, 77, 5, 149, 0, 23};
  for (NodeId u : queries) {
    auto from_reused = reused.Query(u);
    ASSERT_TRUE(from_reused.ok()) << "query " << u;
    SimPushEngine fresh(g, options);
    auto from_fresh = fresh.Query(u);
    ASSERT_TRUE(from_fresh.ok()) << "query " << u;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      ASSERT_EQ(from_reused->scores[v], from_fresh->scores[v])
          << "query " << u << " node " << v;
    }
  }
}

TEST(WorkspaceReuseTest, QueryIntoMatchesQuery) {
  Graph g = testing_util::RandomGraph(120, 840, 59);
  SimPushOptions options;
  options.epsilon = 0.05;
  options.walk_budget_cap = 5000;
  SimPushEngine engine(g, options);

  SimPushResult reused_result;
  for (NodeId u : {NodeId(2), NodeId(60), NodeId(119)}) {
    ASSERT_TRUE(engine.QueryInto(u, &reused_result).ok());
    auto fresh_result = engine.Query(u);
    ASSERT_TRUE(fresh_result.ok());
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      ASSERT_EQ(reused_result.scores[v], fresh_result->scores[v])
          << "query " << u << " node " << v;
    }
  }
}

TEST(WorkspaceReuseTest, SteadyStateQueriesAllocateNothing) {
  // The zero-allocation claim, enforced: after one warm-up pass over
  // the query rotation, QueryInto on a reused engine + result must not
  // touch the heap. This binary links the counting operator new.
  Graph g = testing_util::RandomGraph(200, 1600, 61);
  SimPushOptions options;
  options.epsilon = 0.05;
  options.walk_budget_cap = 5000;
  SimPushEngine engine(g, options);
  SimPushResult result;

  const std::vector<NodeId> rotation = {0, 31, 62, 93, 124, 155, 186};
  for (NodeId u : rotation) {
    ASSERT_TRUE(engine.QueryInto(u, &result).ok());
  }

  const AllocationStats before = GetAllocationStats();
  if (before.allocations == 0) {
    // Sanitizer builds interpose their own operator new/delete, which
    // unlinks the counting hook — the zero-alloc property can't be
    // observed, so skip instead of failing the whole sanitizer tier.
    GTEST_SKIP() << "alloc hook not active (sanitizer interposition?)";
  }
  for (int round = 0; round < 3; ++round) {
    for (NodeId u : rotation) {
      ASSERT_TRUE(engine.QueryInto(u, &result).ok());
    }
  }
  const AllocationStats after = GetAllocationStats();
  EXPECT_EQ(after.allocations - before.allocations, 0u)
      << "steady-state queries must perform zero heap allocations";
}

// A workspace serving graphs of different sizes in turn (the shape a
// registry-wide workspace pool gives every tenant) must answer each
// query bit for bit like a fresh workspace: scratch grown or dirtied by
// the large graph never leaks into a small graph's query, nor the
// reverse. Each ε starts on a workspace the previous ε already grew.
TEST(WorkspaceReuseTest, AlternatingGraphSizesMatchFreshWorkspace) {
  auto large = GenerateChungLu(2000, 16000, 2.2, 5);
  ASSERT_TRUE(large.ok());
  const Graph small = testing_util::RandomGraph(50, 300, 71);
  QueryWorkspace shared;
  SimPushResult reused;
  for (const double epsilon : {0.05, 0.02}) {
    SCOPED_TRACE(epsilon);
    SimPushOptions options;
    options.epsilon = epsilon;
    const EngineCore large_core(*large, options);
    const EngineCore small_core(small, options);
    // Large, small, large.
    const std::pair<const EngineCore*, std::vector<NodeId>> kRounds[] = {
        {&large_core, {1, 1500}},
        {&small_core, {0, 49}},
        {&large_core, {7, 1500}}};
    for (const auto& [core, sources] : kRounds) {
      for (const NodeId u : sources) {
        QueryRunner runner(*core, &shared);
        ASSERT_TRUE(runner.QueryInto(u, &reused).ok());
        QueryWorkspace fresh_workspace;
        QueryRunner fresh(*core, &fresh_workspace);
        const auto expected = fresh.Query(u);
        ASSERT_TRUE(expected.ok());
        const NodeId n = core->graph().num_nodes();
        ASSERT_EQ(reused.scores.size(), n);
        ASSERT_EQ(expected->scores.size(), n);
        for (NodeId v = 0; v < n; ++v) {
          ASSERT_EQ(std::bit_cast<uint64_t>(reused.scores[v]),
                    std::bit_cast<uint64_t>(expected->scores[v]))
              << "n " << n << " query " << u << " node " << v;
        }
        EXPECT_EQ(reused.stats.max_level, expected->stats.max_level);
        EXPECT_EQ(reused.stats.num_attention, expected->stats.num_attention);
      }
    }
  }
}

}  // namespace
}  // namespace simpush
