#include "stack.h"

#include <cstdlib>
#include <utility>

#include "graph/graph_io.h"
#include "inputs.h"

namespace simpush {
namespace bench_e2e {

namespace {

// The load generator writes `"trace_id":N` into traced request bodies;
// 0 means the request is not traced.
uint64_t TraceIdOf(std::string_view body) {
  constexpr std::string_view kKey = "\"trace_id\":";
  const size_t at = body.find(kKey);
  if (at == std::string_view::npos) return 0;
  return std::strtoull(body.data() + at + kKey.size(), nullptr, 10);
}

}  // namespace

const char* SpanName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kClientRequest: return "client.request";
    case SpanKind::kServiceHandle: return "service.handle";
    case SpanKind::kEngineQuery: return "engine.query";
  }
  return "?";
}

const char* RouteName(Route route) {
  switch (route) {
    case Route::kQuery: return "query";
    case Route::kBatch: return "batch";
    case Route::kEdges: return "edges";
  }
  return "?";
}

void Tracer::Record(const Span& span) {
  MutexLock lock(&mu_);
  spans_.push_back(span);
}

serve::HttpHandler Tracer::Wrap(Route route, serve::HttpHandler handler) {
  return [this, route, handler = std::move(handler)](
             const serve::HttpRequest& request) {
    const int64_t start = NowNs();
    serve::HttpResponse response = handler(request);
    const int64_t end = NowNs();
    if (const uint64_t id = TraceIdOf(request.body); id != 0) {
      Record({id, SpanKind::kServiceHandle, route, start, end});
    }
    return response;
  };
}

std::vector<Span> Tracer::Take() {
  MutexLock lock(&mu_);
  return std::move(spans_);
}

ServingStack::ServingStack()
    : service_(ServiceConfig()), server_(ServerConfig()) {}

StatusOr<std::unique_ptr<ServingStack>> ServingStack::Boot(
    const std::string& graph_path, Tracer* tracer, BootTiming* timing) {
  const Clock::time_point start = Clock::now();
  std::unique_ptr<ServingStack> stack(new ServingStack());
  const Clock::time_point load_start = Clock::now();
  StatusOr<Graph> graph = LoadGraphAnyFormat(graph_path);
  if (!graph.ok()) return graph.status();
  const Clock::time_point add_start = Clock::now();
  SIMPUSH_RETURN_NOT_OK(stack->service_.AddGraph(
      std::string(kTenant), *std::move(graph), EngineOptions()));
  const Clock::time_point add_end = Clock::now();

  serve::SimPushService* const service = &stack->service_;
  if (tracer == nullptr) {
    service->RegisterRoutes(&stack->server_);
  } else {
    // Only the routes the workloads call.
    stack->server_.Route(
        "POST", "/v1/query",
        tracer->Wrap(Route::kQuery, [service](const serve::HttpRequest& r) {
          return service->HandleQuery(r);
        }));
    stack->server_.Route(
        "POST", "/v1/batch",
        tracer->Wrap(Route::kBatch, [service](const serve::HttpRequest& r) {
          return service->HandleBatch(r);
        }));
    stack->server_.RoutePrefix(
        "POST", "/v1/graphs/",
        tracer->Wrap(Route::kEdges, [service](const serve::HttpRequest& r) {
          return service->HandleGraphOp(r);
        }));
  }
  SIMPUSH_RETURN_NOT_OK(stack->server_.Start());
  {
    // Closed before returning: a lingering keep-alive connection would
    // pin one of the HTTP workers.
    serve::HttpClient client("127.0.0.1", stack->port(), NoRetry());
    auto response = client.Post("/v1/query", "{\"node\":0,\"top_k\":10}");
    if (!response.ok()) return response.status();
    if (response->status != 200) {
      return Status::Internal("first query answered " +
                              std::to_string(response->status) + ": " +
                              response->body);
    }
  }
  const Clock::time_point ready = Clock::now();
  using Ms = std::chrono::duration<double, std::milli>;
  using S = std::chrono::duration<double>;
  timing->load_ms = Ms(add_start - load_start).count();
  timing->add_ms = Ms(add_end - add_start).count();
  timing->total_s = S(ready - start).count();
  return stack;
}

}  // namespace bench_e2e
}  // namespace simpush
