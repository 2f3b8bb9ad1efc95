// Deadlines and cooperative cancellation.
//
// A Deadline is a steady-clock expiry instant; a CancelToken couples one
// with an external cancel flag (client disconnect, shutdown). Long-
// running engine loops poll the token at a bounded stride — every
// kCancelCheckStride walks / pushed nodes — so a fired deadline aborts
// the query within milliseconds while the poll itself stays O(1).
//
// Determinism contract: polling ONLY READS state (an atomic flag and
// the monotonic clock). It never draws randomness or mutates algorithm
// state, so a run whose token never fires is bit-identical to a run
// with no token at all. The engine relies on this: deadline-carrying
// production traffic and deadline-free replay traffic must agree
// exactly (tests/determinism_test.cc).
//
// Thread-safety contract: Cancel() and every const accessor are safe
// from any thread; the common shape is one thread polling Check()
// while another (the disconnect watcher) calls Cancel().

#ifndef SIMPUSH_COMMON_DEADLINE_H_
#define SIMPUSH_COMMON_DEADLINE_H_

#include <atomic>
#include <chrono>
#include <cstdint>

#include "common/status.h"

namespace simpush {

/// How many loop iterations (walks, pushed nodes, gamma sweeps) run
/// between two cancellation polls. At ~100ns per iteration a stride of
/// 256 bounds the abort latency near tens of microseconds — far inside
/// the ~10ms budget — while keeping the poll off the per-iteration
/// hot path.
constexpr uint32_t kCancelCheckStride = 256;

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
  bool expired() const {
    return !is_infinite() && Clock::now() >= expiry_;
  }

 private:
  Clock::time_point expiry_;
};

/// A deadline plus an external cancel flag, polled cooperatively by the
/// engine's long loops. The token is passed by const pointer through
/// the query pipeline; Cancel() is the only mutator and is safe from
/// any thread (relaxed atomic — the poll needs no ordering, only
/// eventual visibility, which the bounded stride guarantees).
class CancelToken {
 public:
  CancelToken() = default;
  explicit CancelToken(Deadline deadline) : deadline_(deadline) {}

  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Marks the token cancelled (e.g. the client disconnected). Sticky.
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }

  /// True when Cancel() was called (deadline expiry NOT included).
  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

  const Deadline& deadline() const { return deadline_; }

  /// The O(1) poll: true when work should stop. Reads state only —
  /// never advances any RNG (see determinism contract above).
  bool ShouldStop() const {
    return cancelled_.load(std::memory_order_relaxed) ||
           deadline_.expired();
  }

  /// Status form of the poll: Cancelled beats DeadlineExceeded when
  /// both hold (a disconnected client's deadline expiring later must
  /// still be accounted as an abandonment, not a timeout). The OK path
  /// allocates nothing.
  Status Check() const {
    if (cancelled_.load(std::memory_order_relaxed)) {
      return Status::Cancelled("query cancelled");
    }
    if (deadline_.expired()) {
      return Status::DeadlineExceeded("deadline exceeded");
    }
    return Status::OK();
  }

 private:
  Deadline deadline_;
  std::atomic<bool> cancelled_{false};
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
