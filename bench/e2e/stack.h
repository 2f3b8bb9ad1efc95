// The serving stack under test and the spans recorded around it.
//
// ServingStack wires SimPushService and HttpServer exactly as
// tools/simpush_serve.cc does, in-process, on an ephemeral loopback
// port. With a Tracer, the routes the workloads use are registered
// through timing wrappers instead of RegisterRoutes; nothing inside
// src/ is instrumented.

#ifndef SIMPUSH_BENCH_E2E_STACK_H_
#define SIMPUSH_BENCH_E2E_STACK_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/annotations.h"
#include "common/status.h"
#include "serve/http_client.h"
#include "serve/http_server.h"
#include "serve/service.h"

namespace simpush {
namespace bench_e2e {

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock every span shares.
inline int64_t ToNs(Clock::time_point time) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             time.time_since_epoch())
      .count();
}
inline int64_t NowNs() { return ToNs(Clock::now()); }

/// No retries, so a failed request is counted instead of hidden.
inline serve::HttpRetryOptions NoRetry() {
  serve::HttpRetryOptions retry;
  retry.max_attempts = 1;
  return retry;
}

/// The three span levels of one traced request.
enum class SpanKind : uint8_t { kClientRequest, kServiceHandle, kEngineQuery };
/// The endpoint a span belongs to.
enum class Route : uint8_t { kQuery, kBatch, kEdges };

const char* SpanName(SpanKind kind);
const char* RouteName(Route route);

struct Span {
  uint64_t trace_id = 0;
  SpanKind kind = SpanKind::kClientRequest;
  Route route = Route::kQuery;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// In-memory span sink shared by the load generator and the route
/// wrappers; written out once the run ends.
class Tracer {
 public:
  void Record(const Span& span);
  /// Wraps `handler` so each request carrying a "trace_id" field
  /// records a service.handle span around the handler call.
  serve::HttpHandler Wrap(Route route, serve::HttpHandler handler);
  std::vector<Span> Take();

 private:
  Mutex mu_;
  std::vector<Span> spans_ SIMPUSH_GUARDED_BY(mu_);
};

/// Setup phases of one boot, for the graph and registry layers.
struct BootTiming {
  double load_ms = 0;   ///< LoadGraphAnyFormat.
  double add_ms = 0;    ///< SimPushService::AddGraph.
  double total_s = 0;   ///< Construction to the first 200 on /v1/query.
};

/// One booted service + server pair; destruction drains the server.
class ServingStack {
 public:
  /// Loads `graph_path`, registers it as kTenant, starts the server and
  /// waits for the first 200 on /v1/query. `tracer` (nullable) selects
  /// the traced route wrappers.
  static StatusOr<std::unique_ptr<ServingStack>> Boot(
      const std::string& graph_path, Tracer* tracer, BootTiming* timing);

  ServingStack(const ServingStack&) = delete;
  ServingStack& operator=(const ServingStack&) = delete;

  serve::GraphRegistry& registry() { return service_.registry(); }
  serve::HttpServer& server() { return server_; }
  uint16_t port() const { return server_.port(); }

 private:
  ServingStack();

  // Declared before the server so the server (whose handlers call into
  // the service) is destroyed first.
  serve::SimPushService service_;
  serve::HttpServer server_;
};

}  // namespace bench_e2e
}  // namespace simpush

#endif  // SIMPUSH_BENCH_E2E_STACK_H_
