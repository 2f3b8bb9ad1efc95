#include "common/deadline.h"

#include <poll.h>

namespace simpush {

bool CancelToken::PeerHungUp(Deadline::Clock::time_point now) const {
  constexpr Deadline::Clock::rep kIntervalTicks =
      std::chrono::duration_cast<Deadline::Clock::duration>(kPeerProbeInterval)
          .count();
  const Deadline::Clock::rep tick = now.time_since_epoch().count();
  if (tick < next_probe_.load(std::memory_order_relaxed)) return false;
  // POLLRDHUP includes a half-close: a client that shut down its write
  // side has abandoned the request. POLLHUP and POLLERR need no asking.
  pollfd peer{peer_fd_, POLLRDHUP, 0};
  if (::poll(&peer, 1, 0) != 1 ||
      (peer.revents & (POLLRDHUP | POLLHUP | POLLERR)) == 0) {
    next_probe_.store(tick + kIntervalTicks, std::memory_order_relaxed);
    return false;
  }
  cancelled_.store(true, std::memory_order_relaxed);
  return true;
}

}  // namespace simpush
