// Unit tests for the common substrate: Status/StatusOr, Rng, Timer,
// memory accounting, TouchedBits.

#include <cmath>
#include <set>
#include <vector>

#include "common/deadline.h"
#include "common/memory.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/timer.h"
#include "common/touched_bits.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace simpush {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad node");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad node");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad node");
}

TEST(StatusTest, AllConstructorsProduceDistinctCodes) {
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::IOError("x").code(), StatusCode::kIOError);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::IOError("a"));
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> so(41);
  ASSERT_TRUE(so.ok());
  EXPECT_EQ(*so, 41);
  EXPECT_EQ(so.value_or(0), 41);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> so(Status::NotFound("missing"));
  EXPECT_FALSE(so.ok());
  EXPECT_EQ(so.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(so.value_or(-1), -1);
}

TEST(StatusOrTest, MoveOutValue) {
  StatusOr<std::vector<int>> so(std::vector<int>{1, 2, 3});
  std::vector<int> v = std::move(so).value();
  EXPECT_EQ(v.size(), 3u);
}

StatusOr<int> HelperReturnsThroughMacro(bool fail) {
  StatusOr<int> inner = fail ? StatusOr<int>(Status::Internal("boom"))
                             : StatusOr<int>(7);
  SIMPUSH_ASSIGN_OR_RETURN(int x, std::move(inner));
  return x + 1;
}

TEST(StatusOrTest, AssignOrReturnMacro) {
  EXPECT_EQ(*HelperReturnsThroughMacro(false), 8);
  EXPECT_EQ(HelperReturnsThroughMacro(true).status().code(),
            StatusCode::kInternal);
}

TEST(RngTest, DeterministicFromSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, DoubleMeanIsHalf) {
  Rng rng(9);
  double total = 0;
  const int trials = 200000;
  for (int i = 0; i < trials; ++i) total += rng.NextDouble();
  EXPECT_NEAR(total / trials, 0.5, 0.01);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(11);
  for (uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.NextBounded(bound), bound);
    }
  }
}

TEST(RngTest, BoundedIsRoughlyUniform) {
  Rng rng(13);
  const uint64_t bound = 10;
  std::vector<int> counts(bound, 0);
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) ++counts[rng.NextBounded(bound)];
  for (uint64_t k = 0; k < bound; ++k) {
    EXPECT_NEAR(counts[k], trials / double(bound), trials * 0.01);
  }
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(17);
  const int trials = 200000;
  int hits = 0;
  for (int i = 0; i < trials; ++i) {
    if (rng.NextBernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(hits / double(trials), 0.3, 0.01);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(21);
  Rng forked = a.Fork();
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == forked.Next()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(TimerTest, MeasuresElapsedTime) {
  Timer timer;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + std::sqrt(double(i));
  EXPECT_GT(timer.ElapsedSeconds(), 0.0);
  EXPECT_GE(timer.ElapsedMillis(), timer.ElapsedSeconds() * 1e3 * 0.5);
}

TEST(TimerTest, RestartResets) {
  Timer timer;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + std::sqrt(double(i));
  const double before = timer.ElapsedSeconds();
  timer.Restart();
  EXPECT_LT(timer.ElapsedSeconds(), before + 1.0);
}

TEST(MemoryTest, PeakRssNonZero) { EXPECT_GT(PeakRssBytes(), 0u); }

TEST(MemoryTest, CurrentRssNonZero) { EXPECT_GT(CurrentRssBytes(), 0u); }

TEST(MemoryTest, HumanBytesUnits) {
  double v = 512;
  EXPECT_STREQ(HumanBytesUnit(&v), "B");
  v = 2048;
  EXPECT_STREQ(HumanBytesUnit(&v), "KB");
  EXPECT_DOUBLE_EQ(v, 2.0);
  v = 3.5 * 1024 * 1024 * 1024;
  EXPECT_STREQ(HumanBytesUnit(&v), "GB");
}

// n = 130 is not a multiple of 64: the last word is partial.
constexpr size_t kBitsN = 130;

std::vector<size_t> Drained(TouchedBits* bits) {
  std::vector<size_t> out;
  bits->Drain([&](size_t i) { out.push_back(i); });
  return out;
}

TEST(TouchedBitsTest, MarksWordEdgesAndLastIndex) {
  TouchedBits bits;
  bits.Reset(kBitsN);
  for (const size_t i : {kBitsN - 1, size_t{64}, size_t{0}, size_t{63}}) {
    bits.Mark(i);
  }
  for (size_t i = 0; i < kBitsN; ++i) {
    EXPECT_EQ(bits.Test(i), i == 0 || i == 63 || i == 64 || i == kBitsN - 1)
        << i;
  }
}

TEST(TouchedBitsTest, DrainIsAscendingAndClearsEveryBit) {
  TouchedBits bits;
  bits.Reset(kBitsN);
  for (const size_t i : {size_t{100}, kBitsN - 1, size_t{3}, size_t{64},
                         size_t{63}, size_t{3}}) {
    bits.Mark(i);
  }
  EXPECT_EQ(Drained(&bits),
            (std::vector<size_t>{3, 63, 64, 100, kBitsN - 1}));
  for (size_t i = 0; i < kBitsN; ++i) EXPECT_FALSE(bits.Test(i)) << i;
  EXPECT_TRUE(Drained(&bits).empty());
}

TEST(TouchedBitsTest, ForEachKeepsTheBits) {
  TouchedBits bits;
  bits.Reset(kBitsN);
  bits.Mark(kBitsN - 1);
  bits.Mark(5);
  std::vector<size_t> seen;
  bits.ForEach([&](size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, (std::vector<size_t>{5, kBitsN - 1}));
  EXPECT_TRUE(bits.Test(5));
  EXPECT_TRUE(bits.Test(kBitsN - 1));
  EXPECT_EQ(Drained(&bits), seen);
}

TEST(TouchedBitsTest, ResetCleansAMaskLeftDirty) {
  // An interrupted use (a cancelled scatter) leaves bits set; Reset
  // clears them whether the next use has the same size or a smaller one.
  TouchedBits bits;
  bits.Reset(kBitsN);
  bits.Mark(1);
  bits.Mark(70);
  bits.Mark(kBitsN - 1);
  bits.Reset(kBitsN);
  EXPECT_TRUE(Drained(&bits).empty());
  bits.Mark(2);
  bits.Reset(10);
  EXPECT_TRUE(Drained(&bits).empty());
  bits.Reset(kBitsN);
  for (size_t i = 0; i < kBitsN; ++i) EXPECT_FALSE(bits.Test(i)) << i;
}

// The peer-probe half of the CancelToken contract (common/deadline.h),
// on a socket pair standing in for a served connection.
TEST(CancelTokenTest, PeerShutdownFiresByTheFirstDueProbe) {
  testing_util::SocketPair sockets;
  const CancelToken token(Deadline::Infinite(), sockets.ours);
  ASSERT_TRUE(token.Check().ok());  // The first poll probes an open peer.
  const Deadline::Clock::time_point probed = Deadline::Clock::now();
  ASSERT_EQ(::shutdown(sockets.peer, SHUT_WR), 0);
  while (true) {
    const Deadline::Clock::time_point polled = Deadline::Clock::now();
    const Status status = token.Check();
    if (!status.ok()) {
      EXPECT_EQ(status.code(), StatusCode::kCancelled);
      break;
    }
    // A poll that starts a whole interval after the last probe probes.
    ASSERT_LT(polled, probed + kPeerProbeInterval);
  }
  EXPECT_TRUE(token.cancelled());
  EXPECT_TRUE(token.ShouldStop());
}

TEST(CancelTokenTest, PipelinedBytesNeverFire) {
  testing_util::SocketPair sockets;
  const CancelToken token(Deadline::Infinite(), sockets.ours);
  const char request[] = "GET /healthz HTTP/1.1\r\n\r\n";
  ASSERT_EQ(::send(sockets.peer, request, sizeof(request) - 1, 0),
            static_cast<ssize_t>(sizeof(request) - 1));
  const Timer timer;
  while (timer.ElapsedMillis() < 50.0) {
    ASSERT_TRUE(token.Check().ok());
    ASSERT_FALSE(token.ShouldStop());
  }
  EXPECT_FALSE(token.cancelled());
}

TEST(CancelTokenTest, PeerCloseFiresOnTheFirstPoll) {
  testing_util::SocketPair sockets;
  const CancelToken token(Deadline::Infinite(), sockets.ours);
  sockets.ClosePeer();
  EXPECT_TRUE(token.ShouldStop());
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.Check().code(), StatusCode::kCancelled);
}

TEST(CancelTokenTest, HungUpPeerBeatsAnExpiredDeadline) {
  testing_util::SocketPair sockets;
  const CancelToken open_peer(Deadline::Expired(), sockets.ours);
  EXPECT_EQ(open_peer.Check().code(), StatusCode::kDeadlineExceeded);
  sockets.ClosePeer();
  const CancelToken hung_up(Deadline::Expired(), sockets.ours);
  EXPECT_EQ(hung_up.Check().code(), StatusCode::kCancelled);
}

TEST(CancelTokenTest, NoPeerMeansADeadlineOnlyToken) {
  // peer_fd = -1 is the default: nothing to probe, so only Cancel() and
  // the deadline stop it.
  const CancelToken unbounded(Deadline::Infinite(), -1);
  for (int i = 0; i < 1000; ++i) ASSERT_TRUE(unbounded.Check().ok());
  EXPECT_FALSE(unbounded.cancelled());
  const CancelToken expired(Deadline::Expired(), -1);
  EXPECT_EQ(expired.Check().code(), StatusCode::kDeadlineExceeded);
  EXPECT_FALSE(expired.cancelled());
  CancelToken cancelled(Deadline::Infinite(), -1);
  cancelled.Cancel();
  EXPECT_EQ(cancelled.Check().code(), StatusCode::kCancelled);
}

}  // namespace
}  // namespace simpush
