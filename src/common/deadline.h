// Deadlines and cooperative cancellation.
//
// A Deadline is a steady-clock expiry instant; a CancelToken couples one
// with a cancel flag and, optionally, the socket of the client that is
// waiting for the answer. Long-running engine loops poll the token at a
// bounded stride — every kCancelCheckStride walks / pushed nodes — so a
// fired deadline or a hung-up client aborts the query within
// milliseconds while the poll itself stays O(1).
//
// Determinism contract: a poll never touches algorithm state or
// randomness; the most it writes is the token's own cancelled flag. So
// a run whose token never fires is bit-identical to a run with no token
// at all. The engine relies on this: deadline-carrying production
// traffic and deadline-free replay traffic must agree exactly
// (tests/determinism_test.cc).
//
// Thread-safety contract: Cancel() and every const member are safe from
// any thread, and any poller may fire the token; the common shape is
// several pool threads polling one batch's token at once.

#ifndef SIMPUSH_COMMON_DEADLINE_H_
#define SIMPUSH_COMMON_DEADLINE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>

#include "common/status.h"

namespace simpush {

/// How many loop iterations (walks, pushed nodes, gamma sweeps) run
/// between two cancellation polls. At ~100ns per iteration a stride of
/// 256 bounds the abort latency near tens of microseconds — far inside
/// the ~10ms budget — while keeping the poll off the per-iteration
/// hot path.
constexpr uint32_t kCancelCheckStride = 256;

/// How often a token probes its peer socket. It sets both how soon a
/// query notices its client hung up and the probe's syscall rate: one
/// poll() per query per interval.
constexpr std::chrono::milliseconds kPeerProbeInterval{10};

/// A monotonic-clock expiry instant. Default-constructed deadlines
/// never expire.
class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  /// Never expires.
  Deadline() : expiry_(Clock::time_point::max()) {}

  /// Never expires (explicit spelling of the default).
  static Deadline Infinite() { return Deadline(); }

  /// Expires `ms` milliseconds from now (clamped at "never" for
  /// non-positive values — a deadline of 0 means "no deadline", not
  /// "already expired"; use Expired() for that).
  static Deadline After(int64_t ms) {
    if (ms <= 0) return Infinite();
    Deadline d;
    d.expiry_ = Clock::now() + std::chrono::milliseconds(ms);
    return d;
  }

  /// Already expired (every poll fires immediately).
  static Deadline Expired() {
    Deadline d;
    d.expiry_ = Clock::time_point::min();
    return d;
  }

  bool is_infinite() const { return expiry_ == Clock::time_point::max(); }

  /// True once the instant has passed. Reads the clock; never blocks.
  bool expired() const { return !is_infinite() && expired_at(Clock::now()); }

  /// True when the instant is at or before `now`.
  bool expired_at(Clock::time_point now) const { return now >= expiry_; }

 private:
  Clock::time_point expiry_;
};

/// A deadline plus a cancel flag, polled cooperatively by the engine's
/// long loops. The token is passed by const pointer through the query
/// pipeline. The flag is a relaxed atomic: the poll needs no ordering,
/// only eventual visibility, which the bounded stride guarantees.
class CancelToken {
 public:
  CancelToken() = default;
  /// `peer_fd`, when non-negative, is a connected socket that must stay
  /// open for the token's life. Its peer hanging up cancels the token: a
  /// poll probes it with poll(POLLRDHUP) once per kPeerProbeInterval
  /// (the first poll always probes), and POLLRDHUP, POLLHUP or POLLERR
  /// fires the token. Readable bytes alone do not — they may be the
  /// client pipelining its next request — and neither does a failed
  /// poll() call.
  explicit CancelToken(Deadline deadline, int peer_fd = -1)
      : deadline_(deadline), peer_fd_(peer_fd) {}

  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Marks the token cancelled. Sticky.
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }

  /// True once Cancel() was called or a poll saw the peer hang up
  /// (deadline expiry NOT included).
  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

  const Deadline& deadline() const { return deadline_; }

  /// The O(1) poll: true when work should stop.
  bool ShouldStop() const { return Poll() != State::kRunning; }

  /// Status form of the poll: Cancelled beats DeadlineExceeded when
  /// both hold (a disconnected client's deadline expiring later must
  /// still be accounted as an abandonment, not a timeout). The OK path
  /// allocates nothing.
  Status Check() const {
    const State state = Poll();
    if (state == State::kCancelled) {
      return Status::Cancelled("query cancelled");
    }
    if (state == State::kExpired) {
      return Status::DeadlineExceeded("deadline exceeded");
    }
    return Status::OK();
  }

 private:
  enum class State { kRunning, kCancelled, kExpired };

  State Poll() const {
    if (cancelled()) return State::kCancelled;
    if (peer_fd_ < 0) {
      return deadline_.expired() ? State::kExpired : State::kRunning;
    }
    // One clock read serves both the probe's rate limit and the deadline.
    const Deadline::Clock::time_point now = Deadline::Clock::now();
    if (PeerHungUp(now)) return State::kCancelled;
    return deadline_.expired_at(now) ? State::kExpired : State::kRunning;
  }

  /// Probes peer_fd_ when a probe is due at `now`, and cancels the token
  /// when the peer is gone. Returns whether it did.
  bool PeerHungUp(Deadline::Clock::time_point now) const;

  Deadline deadline_;
  int peer_fd_ = -1;
  mutable std::atomic<bool> cancelled_{false};
  // Clock ticks at which the next probe is due. Only a probe that finds
  // the peer open moves it on, so a poller racing another's probe of a
  // hung-up peer probes too rather than run on unaware. Pollers that
  // find a probe due at the same moment may each make it.
  mutable std::atomic<Deadline::Clock::rep> next_probe_{
      std::numeric_limits<Deadline::Clock::rep>::min()};
};

/// Null-tolerant poll helpers: the engine threads the token as a
/// nullable pointer so deadline-free callers pay a single pointer
/// compare per stride.
inline bool ShouldStop(const CancelToken* token) {
  return token != nullptr && token->ShouldStop();
}

inline Status CheckCancel(const CancelToken* token) {
  return token == nullptr ? Status::OK() : token->Check();
}

}  // namespace simpush

#endif  // SIMPUSH_COMMON_DEADLINE_H_
