// Minimal blocking HTTP/1.1 client, just enough to drive simpush_serve:
// used by the serve and chaos tests and the bench/e2e load generator.
// Not a general client — no TLS, no redirects, no chunked encoding (the
// server always frames with Content-Length).
//
// Thread-safety contract: an HttpClient is NOT thread-safe (it owns one
// socket). Concurrency means one client per thread — exactly how the
// bench/e2e closed-loop clients use it.

#ifndef SIMPUSH_SERVE_HTTP_CLIENT_H_
#define SIMPUSH_SERVE_HTTP_CLIENT_H_

#include <cstdint>
#include <random>
#include <string>
#include <string_view>

#include "common/status.h"
#include "serve/http_server.h"

namespace simpush {
namespace serve {

/// Retry policy for transient failures. Connect failures are always
/// safe to retry (the connection never carried a request); full
/// request retries apply only to idempotent GETs — a POST whose
/// connection died mid-flight may already have executed server-side,
/// so it is surfaced to the caller instead (except the classic
/// keep-alive case: a REUSED connection that fails gets one reconnect
/// and resend, since the server provably closed it before reading).
/// Retries back off 10 ms, doubling per retry up to 250 ms, ±50% jitter.
struct HttpRetryOptions {
  /// Total attempts (first try included). 1 = no retries.
  int max_attempts = 3;
};

/// One keep-alive connection to a server. Reconnects transparently if
/// the server closed the connection between requests.
class HttpClient {
 public:
  /// Connects lazily on the first request.
  HttpClient(std::string host, uint16_t port, HttpRetryOptions retry = {});
  ~HttpClient();

  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  /// Issues one request and reads the full response. `method` is "GET"
  /// or "POST"; `body` is sent with Content-Length framing.
  StatusOr<HttpResponse> Request(std::string_view method,
                                 std::string_view target,
                                 std::string_view body = {});

  /// Convenience wrappers.
  StatusOr<HttpResponse> Get(std::string_view target) {
    return Request("GET", target);
  }
  StatusOr<HttpResponse> Post(std::string_view target,
                              std::string_view body) {
    return Request("POST", target, body);
  }

  /// Drops the current connection (next request reconnects).
  void Disconnect();

 private:
  Status Connect();
  /// Connect() with the retry policy applied (jittered backoff between
  /// attempts).
  Status ConnectWithRetry();
  /// One full try: connect if needed, send, read, with the keep-alive
  /// reconnect-once fallback for reused connections.
  StatusOr<HttpResponse> RequestAttempt(std::string_view method,
                                        std::string_view target,
                                        std::string_view body);
  StatusOr<HttpResponse> RequestOnce(std::string_view method,
                                     std::string_view target,
                                     std::string_view body,
                                     bool* connection_closed);
  /// Jittered exponential backoff for retry number `retry` (0-based).
  int BackoffMs(int retry);

  const std::string host_;
  const uint16_t port_;
  const HttpRetryOptions retry_;
  std::mt19937 jitter_;  // Backoff jitter only; not the engine RNG.
  int fd_ = -1;
  std::string buffer_;  // Unconsumed bytes between responses.
};

}  // namespace serve
}  // namespace simpush

#endif  // SIMPUSH_SERVE_HTTP_CLIENT_H_
