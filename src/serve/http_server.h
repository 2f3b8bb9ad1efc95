// Dependency-free HTTP/1.1 server for the SimPush serving front end.
//
// Deliberately minimal: blocking POSIX sockets, an accept thread, a
// bounded queue of accepted connections, and a fixed pool of worker
// threads that each own one connection at a time (keep-alive supported).
// This is not a general web server — it implements exactly what a
// same-datacenter RPC front end needs: Content-Length framed requests
// (a request carrying Transfer-Encoding is refused with 501),
// a method+path router, admission control, and graceful drain.
//
// Admission control: the accept thread never blocks on workers. When
// `max_queued_connections` accepted sockets are already waiting, new
// connections receive an immediate `503 {"error":"overloaded"}` and are
// closed — load sheds at the door instead of growing an unbounded
// backlog (the ThreadPool's unbounded Submit queue is wrong for a
// server, which is why this layer does not reuse it).
//
// Graceful drain: Shutdown() stops accepting, lets every queued and
// in-flight request finish (responses carry `Connection: close`), then
// joins all threads. In-flight work is never cut off mid-response.
//
// Thread-safety contract: Route() calls must all happen before Start().
// Start()/Shutdown() are for one controlling thread; port() and the
// counters may be read from any thread. Handlers run concurrently on
// worker threads and must be thread-safe with respect to each other.

#ifndef SIMPUSH_SERVE_HTTP_SERVER_H_
#define SIMPUSH_SERVE_HTTP_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/annotations.h"
#include "common/status.h"

namespace simpush {
namespace serve {

/// One parsed HTTP request. Header names are lower-cased at parse time.
struct HttpRequest {
  std::string method;  ///< "GET", "POST", ... (upper-case as received).
  std::string target;  ///< Request target, e.g. "/v1/query".
  std::string body;    ///< Content-Length bytes (empty when absent).
  std::vector<std::pair<std::string, std::string>> headers;
  /// The connection's socket, valid for the handler's duration. A
  /// handler hands it to its query's CancelToken, whose poll probes it
  /// for a client hang-up while the query computes; handlers must never
  /// read, write, or close it — the server owns the connection framing.
  int client_fd = -1;

  /// First header named `name` (lower-case), or nullptr.
  const std::string* FindHeader(std::string_view name) const;
};

/// One response to serialize. Handlers fill status/body; the server adds
/// framing headers (Content-Length, Connection).
struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  std::string body;
  /// Additional headers appended verbatim (e.g. {"Retry-After", "1"}).
  /// Names the server already emits (Content-Type/Length, Connection)
  /// must not appear here.
  std::vector<std::pair<std::string, std::string>> extra_headers;
};

/// A route handler. Runs on a worker thread; must be thread-safe
/// against concurrent invocations of any handler.
using HttpHandler = std::function<HttpResponse(const HttpRequest&)>;

/// Server configuration; all fields have serviceable defaults.
struct HttpServerOptions {
  uint16_t port = 0;            ///< 0 = kernel-assigned ephemeral port.
  size_t num_workers = 0;       ///< 0 = hardware concurrency.
  size_t max_queued_connections = 64;  ///< Admission bound; excess → 503.
  size_t max_body_bytes = 16u << 20;   ///< Larger bodies → 413.
  /// Socket read timeout (must be > 0): the granularity at which a
  /// worker re-checks the idle budget and the drain flag.
  int read_timeout_ms = 200;
  /// Socket write timeout (must be > 0): bounds how long one send() may
  /// block on a full socket buffer — the write-side mirror of
  /// read_timeout_ms. Without it a client that stops reading while a
  /// large response is mid-flight holds its worker hostage forever.
  int write_timeout_ms = 200;
  /// A keep-alive connection that sends no bytes for this long between
  /// requests is closed silently. Once a request has begun, the rest of
  /// it must arrive within this long of its first byte, however slowly
  /// it trickles, or it is answered 408 and the connection closed. An
  /// idle keep-alive connection still holds its worker for up to this
  /// long.
  int idle_timeout_ms = 30000;
};

/// Counters exposed by the server (monotonic since Start).
struct HttpServerCounters {
  uint64_t accepted = 0;      ///< Connections handed to workers.
  uint64_t rejected_503 = 0;  ///< Connections shed by admission control.
  uint64_t requests = 0;      ///< Requests fully served (any status).
};

/// Minimal multi-threaded HTTP/1.1 server. See file comment for the
/// threading and admission model.
class HttpServer {
 public:
  explicit HttpServer(HttpServerOptions options);
  /// Calls Shutdown() if still running.
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Registers `handler` for exact (method, path) matches. Must be
  /// called before Start(). Unknown paths get 404, known paths with a
  /// different method get 405.
  void Route(std::string method, std::string path, HttpHandler handler);

  /// Registers `handler` for every target that starts with `prefix`
  /// (e.g. "/v1/graphs/" serves "/v1/graphs/web/swap"). Exact routes
  /// win over prefixes; among prefixes the longest match wins. The
  /// handler parses the remainder of request.target itself. Must be
  /// called before Start().
  void RoutePrefix(std::string method, std::string prefix,
                   HttpHandler handler);

  /// Routes `request` the way a served connection does and returns the
  /// response: an exact (method, path) route first, then the longest
  /// matching prefix route for the method; 405 when some route covers
  /// the path but none the method, 404 when none covers the path. Runs
  /// the handler on the calling thread and needs no Start().
  HttpResponse Dispatch(const HttpRequest& request) const;

  /// Binds, listens, and spawns the accept + worker threads. Fails with
  /// IOError when the port cannot be bound.
  Status Start();

  /// Graceful drain: stop accepting, serve everything already accepted
  /// to completion, join all threads, close the listen socket.
  /// Idempotent; safe to call while requests are in flight.
  void Shutdown();

  /// The bound port (useful with options.port = 0). Valid after Start().
  uint16_t port() const { return port_; }
  /// True between a successful Start() and Shutdown().
  bool running() const { return running_.load(); }
  /// Snapshot of the admission/request counters.
  HttpServerCounters counters() const;
  /// Accepted connections currently waiting for a worker.
  size_t queue_depth() const;

 private:
  void AcceptLoop();
  void WorkerLoop();
  void ServeConnection(int fd);
  // Reads one request off `fd`. Returns 1 on success, 0 on clean
  // connection close before any bytes, -1 on error/timeout-at-drain.
  int ReadRequest(int fd, std::string* buffer, HttpRequest* request);
  // Serializes and sends one response under the write budget. False
  // means the connection is unusable (stalled or gone) and must close.
  bool WriteResponse(int fd, const HttpResponse& response, bool close);

  const HttpServerOptions options_;
  std::vector<std::tuple<std::string, std::string, HttpHandler>> routes_;
  // (method, prefix, handler); consulted when no exact path matches.
  std::vector<std::tuple<std::string, std::string, HttpHandler>>
      prefix_routes_;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  // Shutdown stops the accept thread (accept_stopping_) strictly
  // before the workers (stopping_); see Shutdown() for why.
  std::atomic<bool> accept_stopping_{false};
  std::atomic<bool> stopping_{false};

  mutable Mutex queue_mu_;
  CondVar queue_cv_;
  // Accepted fds awaiting a worker.
  std::deque<int> pending_ SIMPUSH_GUARDED_BY(queue_mu_);

  std::thread accept_thread_;
  std::vector<std::thread> workers_;

  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> requests_{0};
};

}  // namespace serve
}  // namespace simpush

#endif  // SIMPUSH_SERVE_HTTP_SERVER_H_
