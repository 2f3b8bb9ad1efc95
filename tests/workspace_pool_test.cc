// Tests for the pooled-workspace concurrency model: lease accounting,
// blocking semantics, concurrent queries on one shared EngineCore being
// bit-identical to serial single-engine runs, no leaked leases after
// fan-outs, and zero steady-state allocations once the pool is warm
// (this binary links the counting operator new/delete from
// common/alloc_hook.cc).

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/deadline.h"
#include "common/memory.h"
#include "graph/generators.h"
#include "gtest/gtest.h"
#include "simpush/engine_core.h"
#include "simpush/parallel.h"
#include "simpush/query_runner.h"
#include "simpush/simpush.h"
#include "simpush/workspace_pool.h"
#include "test_util.h"

namespace simpush {
namespace {

SimPushOptions TestOptions() {
  SimPushOptions options;
  options.epsilon = 0.05;
  options.walk_budget_cap = 5000;
  options.seed = 7;
  return options;
}

TEST(WorkspacePoolTest, LeaseAccounting) {
  WorkspacePool pool(2);
  EXPECT_EQ(pool.capacity(), 2u);
  EXPECT_EQ(pool.outstanding(), 0u);
  EXPECT_EQ(pool.created(), 0u);  // Lazy: nothing built until demanded.

  WorkspaceLease a = pool.Acquire();
  ASSERT_TRUE(a);
  EXPECT_EQ(pool.outstanding(), 1u);
  EXPECT_EQ(pool.created(), 1u);

  WorkspaceLease b = pool.Acquire();
  ASSERT_TRUE(b);
  EXPECT_EQ(pool.outstanding(), 2u);
  EXPECT_NE(a.get(), b.get());

  a.Release();
  EXPECT_FALSE(a);
  EXPECT_EQ(pool.outstanding(), 1u);
  WorkspaceLease d = pool.Acquire();
  EXPECT_TRUE(d);
  // The released workspace is recycled, not rebuilt.
  EXPECT_EQ(pool.created(), 2u);
}

TEST(WorkspacePoolTest, AcquireBlocksUntilReturn) {
  WorkspacePool pool(1);
  WorkspaceLease held = pool.Acquire();
  std::atomic<bool> acquired{false};
  std::thread waiter([&] {
    WorkspaceLease lease = pool.Acquire();
    acquired.store(true);
  });
  // The waiter must be parked while the only workspace is leased.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(acquired.load());
  held.Release();
  waiter.join();
  EXPECT_TRUE(acquired.load());
  EXPECT_EQ(pool.outstanding(), 0u);
}

TEST(WorkspacePoolTest, AnnotatedLocksSurviveAcquireReleaseStorm) {
  // The pool's mutex/condvar are the capability-annotated wrappers from
  // common/annotations.h. This storm races the untimed Acquire(nullptr)
  // against Acquire with a never-firing token, plus Release, across
  // more threads than workspaces so every wrapper path fires under
  // contention — Lock, CondVar::Wait's adopt/release dance, and the
  // timed WaitFor the token-holding wait polls with. The TSan tier
  // proves the wrappers kept std::mutex's happens-before edges; the
  // accounting below proves no lease was double-issued or lost.
  WorkspacePool pool(3);
  const size_t kThreads = 8;
  const int kRounds = 200;
  const CancelToken never_firing(Deadline::After(600000));
  std::atomic<size_t> served{0};
  std::atomic<size_t> peak{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        WorkspaceLease lease = pool.Acquire(
            ((t + round) % 2 == 0) ? nullptr : &never_firing);
        if (!lease) continue;
        const size_t now = pool.outstanding();
        size_t seen = peak.load();
        while (now > seen && !peak.compare_exchange_weak(seen, now)) {
        }
        served.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(pool.outstanding(), 0u);
  EXPECT_LE(pool.created(), 3u);
  EXPECT_LE(peak.load(), 3u) << "capacity cap violated under contention";
  // Neither wait gives up without a fired token: every attempt served.
  EXPECT_EQ(served.load(), kThreads * kRounds);
  EXPECT_FALSE(never_firing.cancelled());
}

TEST(WorkspacePoolTest, MoveTransfersOwnership) {
  WorkspacePool pool(1);
  WorkspaceLease a = pool.Acquire();
  QueryWorkspace* workspace = a.get();
  WorkspaceLease b = std::move(a);
  EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move): post-move empty.
  EXPECT_EQ(b.get(), workspace);
  EXPECT_EQ(pool.outstanding(), 1u);
  b = WorkspaceLease();  // Move-assign over a live lease returns it.
  EXPECT_EQ(pool.outstanding(), 0u);
}

TEST(PooledConcurrencyTest, ConcurrentQueriesBitIdenticalToSerial) {
  // N threads hammering one shared EngineCore through a pool smaller
  // than the thread count must reproduce serial single-engine scores
  // bit for bit, for every query, no matter which workspace served it.
  Graph g = testing_util::RandomGraph(300, 1800, 23);
  const SimPushOptions options = TestOptions();

  const std::vector<NodeId> queries = {0, 7, 13, 13, 50, 121, 200, 299};
  std::vector<std::vector<double>> serial(queries.size());
  {
    SimPushEngine engine(g, options);
    for (size_t i = 0; i < queries.size(); ++i) {
      auto result = engine.Query(queries[i]);
      ASSERT_TRUE(result.ok());
      serial[i] = std::move(result->scores);
    }
  }

  EngineCore core(g, options);
  WorkspacePool pool(3);  // Fewer workspaces than threads: leases contend.
  const size_t kThreads = 6;
  const int kRounds = 4;
  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      SimPushResult result;
      for (int round = 0; round < kRounds; ++round) {
        // Stagger the order per thread so workspaces swap owners.
        for (size_t i = 0; i < queries.size(); ++i) {
          const size_t pick = (i + t + round) % queries.size();
          QueryRunner runner(core, pool);
          if (!runner.QueryInto(queries[pick], &result).ok()) {
            mismatches.fetch_add(1);
            continue;
          }
          if (result.scores != serial[pick]) mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(pool.outstanding(), 0u) << "a lease leaked";
  EXPECT_LE(pool.created(), 3u);
}

TEST(PooledConcurrencyTest, FanOutsReturnEveryLease) {
  // Every fan-out path drains its leases: after batches, top-k batches,
  // and reuse of the same pools, outstanding() must be zero and the
  // workspace count bounded by the pool capacity.
  Graph g = testing_util::RandomGraph(200, 1200, 31);
  testing_util::FanOut fan_out(g, TestOptions(), 4);
  std::vector<NodeId> queries;
  for (NodeId u = 0; u < 24; ++u) queries.push_back(u);

  for (int round = 0; round < 3; ++round) {
    std::atomic<size_t> seen{0};
    auto stats = fan_out.Run(queries, [&](size_t, const SimPushResult&) {
      seen.fetch_add(1);
      return true;
    });
    EXPECT_EQ(stats.queries_ok, queries.size());
    EXPECT_EQ(seen.load(), queries.size());
    EXPECT_EQ(fan_out.workspaces.outstanding(), 0u)
        << "leaked lease in round " << round;
  }
  auto topk = fan_out.TopK(queries, 5);
  ASSERT_TRUE(topk.ok());
  EXPECT_EQ(fan_out.workspaces.outstanding(), 0u);
  EXPECT_LE(fan_out.workspaces.created(), fan_out.workspaces.capacity());
}

TEST(PooledConcurrencyTest, CappedPoolBoundsWorkspacesWithoutDeadlock) {
  // More worker threads than workspaces: surplus chunks must block in
  // Acquire and proceed as leases free up — every query answered, at
  // most pool-capacity workspaces ever built.
  Graph g = testing_util::RandomGraph(200, 1200, 41);
  testing_util::FanOut fan_out(g, TestOptions(), /*threads=*/4,
                               /*pool_capacity=*/2);
  EXPECT_EQ(fan_out.workspaces.capacity(), 2u);
  std::vector<NodeId> queries;
  for (NodeId u = 0; u < 20; ++u) queries.push_back(u);

  std::atomic<size_t> seen{0};
  auto stats = fan_out.Run(queries, [&](size_t, const SimPushResult&) {
    seen.fetch_add(1);
    return true;
  });
  EXPECT_EQ(stats.queries_ok, queries.size());
  EXPECT_EQ(seen.load(), queries.size());
  EXPECT_EQ(fan_out.workspaces.outstanding(), 0u);
  EXPECT_LE(fan_out.workspaces.created(), 2u);
}

TEST(PooledConcurrencyTest, ConcurrentBatchesOnSharedPoolsStayIsolated) {
  // Two batches submitted from different threads onto ONE thread pool
  // and workspace pool: each fan-out waits only for its own chunks,
  // every query of both batches completes, and no lease leaks.
  Graph g = testing_util::RandomGraph(200, 1200, 47);
  testing_util::FanOut fan_out(g, TestOptions(), 4);
  std::vector<NodeId> queries;
  for (NodeId u = 0; u < 16; ++u) queries.push_back(u);

  std::atomic<size_t> seen_a{0};
  std::atomic<size_t> seen_b{0};
  std::thread other([&] {
    auto stats = fan_out.Run(queries, [&](size_t, const SimPushResult&) {
      seen_a.fetch_add(1);
      return true;
    });
    EXPECT_EQ(stats.queries_ok, queries.size());
  });
  auto stats = fan_out.Run(queries, [&](size_t, const SimPushResult&) {
    seen_b.fetch_add(1);
    return true;
  });
  other.join();
  EXPECT_EQ(stats.queries_ok, queries.size());
  EXPECT_EQ(seen_a.load(), queries.size());
  EXPECT_EQ(seen_b.load(), queries.size());
  EXPECT_EQ(fan_out.workspaces.outstanding(), 0u);
}

#if defined(__SANITIZE_THREAD__)
#define SIMPUSH_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SIMPUSH_TSAN_BUILD 1
#endif
#endif

TEST(PooledConcurrencyTest, WarmPoolQueriesAllocateNothing) {
#ifdef SIMPUSH_TSAN_BUILD
  GTEST_SKIP() << "allocation counting is meaningless under TSan "
                  "(the sanitizer runtime allocates)";
#endif
  // The zero-allocation claim extended to the pooled model: once every
  // pooled workspace has served a warm-up pass, checkout → query →
  // return must not touch the heap, no matter which workspace the pool
  // hands out. (Single-threaded on purpose: thread startup allocates;
  // the pool path itself must not.)
  Graph g = testing_util::RandomGraph(200, 1600, 61);
  SimPushOptions options;
  options.epsilon = 0.05;
  options.walk_budget_cap = 5000;

  EngineCore core(g, options);
  WorkspacePool pool(2);
  const std::vector<NodeId> rotation = {0, 31, 62, 93, 124, 155, 186};
  SimPushResult result;

  // Warm both workspaces through interleaved double-leases.
  for (int pass = 0; pass < 2; ++pass) {
    QueryRunner first(core, pool);
    QueryRunner second(core, pool);
    for (NodeId u : rotation) {
      ASSERT_TRUE(first.QueryInto(u, &result).ok());
      ASSERT_TRUE(second.QueryInto(u, &result).ok());
    }
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
      QueryRunner runner(core, pool);
      ASSERT_TRUE(runner.QueryInto(u, &result).ok());
    }
  }
  const AllocationStats after = GetAllocationStats();
  EXPECT_EQ(after.allocations - before.allocations, 0u)
      << "steady-state pooled queries must perform zero heap allocations";
  EXPECT_EQ(pool.outstanding(), 0u);
}

}  // namespace
}  // namespace simpush
