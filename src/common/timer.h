// Monotonic wall-clock timing utilities.

#ifndef SIMPUSH_COMMON_TIMER_H_
#define SIMPUSH_COMMON_TIMER_H_

#include <chrono>
#include <cstdint>

namespace simpush {

/// Simple monotonic stopwatch.
class Timer {
 public:
  Timer() { Restart(); }

  /// Resets the start point to now.
  void Restart() { start_ = Clock::now(); }

  /// Seconds elapsed since construction / last Restart().
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Milliseconds elapsed since construction / last Restart().
  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace simpush

#endif  // SIMPUSH_COMMON_TIMER_H_
