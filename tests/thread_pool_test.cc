// Unit tests for the ThreadPool substrate, plus the
// capability-annotated lock wrappers it runs on (common/annotations.h).

#include "common/thread_pool.h"

#include <atomic>
#include <mutex>
#include <thread>
#include <vector>

#include "common/annotations.h"
#include "gtest/gtest.h"

namespace simpush {
namespace {

// The wrappers must be bit-invisible: a Mutex IS a std::mutex plus
// compile-time attributes, nothing more. A size change would mean a
// runtime cost snuck in (and would shift every struct layout in the
// serving stack).
static_assert(sizeof(Mutex) == sizeof(std::mutex),
              "Mutex wrapper must add zero state over std::mutex");

// Exercises Mutex/MutexLock/CondVar + AssertHeld under real thread
// contention — the TSan concurrency tier proves the wrappers inherit
// std::mutex's happens-before edges (a broken CondVar::Wait adoption
// would race here). AssertHeld() is the ASSERT_CAPABILITY hook: a
// compile-time fact under clang, a free no-op call here.
TEST(AnnotationsTest, WrappersSynchronizeUnderContention) {
  Mutex mu;
  CondVar cv;
  int value = 0;       // Guarded by mu.
  bool ready = false;  // Guarded by mu.

  std::thread consumer([&] {
    MutexLock lock(&mu);
    while (!ready) cv.Wait(mu);
    mu.AssertHeld();  // Reacquired by Wait; the analysis already knows.
    EXPECT_EQ(value, 42);
    value = 43;
  });

  {
    MutexLock lock(&mu);
    mu.AssertHeld();
    value = 42;
    ready = true;
  }
  cv.NotifyOne();
  consumer.join();

  MutexLock lock(&mu);
  EXPECT_EQ(value, 43);
}

TEST(AnnotationsTest, TryLockAndManualLockRoundTrip) {
  Mutex mu;
  ASSERT_TRUE(mu.TryLock());
  mu.AssertHeld();
  // A second TryLock from another thread must fail while held.
  bool acquired = true;
  std::thread prober([&] { acquired = mu.TryLock(); });
  prober.join();
  EXPECT_FALSE(acquired);
  mu.Unlock();

  mu.Lock();
  mu.AssertHeld();
  mu.Unlock();
}

TEST(AnnotationsTest, WaitForTimesOutWithoutNotification) {
  Mutex mu;
  CondVar cv;
  MutexLock lock(&mu);
  EXPECT_EQ(cv.WaitFor(mu, std::chrono::milliseconds(1)),
            std::cv_status::timeout);
}

// Each test scopes its pool: the destructor drains the queue and joins
// the workers, so every submitted task has run once the scope closes.
TEST(ThreadPoolTest, ExecutesAllSubmittedTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
  }
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, SingleThreadPoolRunsSequentially) {
  std::vector<int> order;
  {
    ThreadPool pool(1);
    for (int i = 0; i < 10; ++i) {
      pool.Submit([&order, i] { order.push_back(i); });
    }
  }
  // One worker: FIFO order is deterministic and no data race on `order`.
  ASSERT_EQ(order.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPoolTest, ZeroThreadsClampsToHardware) {
  ThreadPool pool(0);
  EXPECT_GE(pool.num_threads(), 1u);
}

TEST(ThreadPoolTest, DestructorDrainsPendingTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    // The destructor must still run every queued task.
  }
  EXPECT_EQ(counter.load(), 50);
}

}  // namespace
}  // namespace simpush
