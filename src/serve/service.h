// SimPushService: the serving front end's request layer.
//
// Binds the multi-tenant GraphRegistry (per-tenant generations, one
// ThreadPool and one WorkspacePool for every tenant) to HTTP routes:
//
//   POST /v1/query           single-source scores (optional top-k)
//   POST /v1/topk            top-k most similar nodes
//   POST /v1/batch           many queries, fanned out on the shared pool
//   GET  /v1/stats           service counters + per-graph sections
//   GET  /healthz            liveness probe
//   GET  /v1/graphs          list registered graphs
//   POST /v1/graphs          load/create a graph (path or inline edges)
//   GET    /v1/graphs/{name}        one graph's stats section
//   DELETE /v1/graphs/{name}        unregister a graph
//   POST   /v1/graphs/{name}/edges  batched add/remove edge updates
//   POST   /v1/graphs/{name}/swap   publish a new generation now
//   PATCH  /v1/graphs/{name}/options  replace engine options (re-publish)
//
// A server is an empty service plus one AddGraph call per tenant (what
// simpush_serve and bench/e2e do). The query endpoints take an optional
// "graph" field naming the tenant (default: options.default_graph) and
// stamp responses with the generation id that served them, so every
// response is reproducible offline.
//
// Request JSON schemas and examples live in docs/serving.md.
//
// Concurrency model: /v1/query and /v1/topk run directly on the HTTP
// worker thread that parsed them — each leases the tenant's current
// generation (a shared_ptr copy; queries never block on a hot swap and
// keep the generation alive until they finish) and one workspace from
// the registry's shared pool. /v1/batch fans its nodes out across the
// registry's shared thread pool. Admin endpoints mutate only the
// registry, whose rebuilds happen outside every query-path lock.
//
// Every route is a row of one table (service.cc): its decode, run and
// encode steps run in one shell, every failure leaves through one
// Status → HTTP mapping, and every response through one finisher. The
// table and the mapping are listed in docs/serving.md.
//
// Admission control lives in two places: the HttpServer sheds whole
// connections with 503 when its accept queue is full, and this layer
// rejects oversized batch/update/create requests with 413.
//
// Thread-safety contract: all Handle* methods (and RunQuery) are safe
// to call concurrently from any number of threads after construction.

#ifndef SIMPUSH_SERVE_SERVICE_H_
#define SIMPUSH_SERVE_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/deadline.h"
#include "common/status.h"
#include "common/timer.h"
#include "graph/graph.h"
#include "serve/http_server.h"
#include "serve/json.h"
#include "serve/registry.h"
#include "simpush/query_runner.h"
#include "simpush/topk.h"

namespace simpush {
namespace serve {

/// Configuration for a SimPushService. The registry's settings (batch
/// threads, workspace pool cap, swap threshold, tenant limit, result
/// cache budget) are inherited from RegistryOptions.
struct ServiceOptions : RegistryOptions {
  /// Process-default engine knobs (ε, c, δ, seed, walk cap). Tenants
  /// created over HTTP without an "options" object inherit these; a
  /// tenant's own options (AddGraph / POST /v1/graphs "options") take
  /// precedence, and a per-request "epsilon" override beats both. See
  /// docs/serving.md for the precedence table.
  SimPushOptions query;
  /// Lower bound for every NETWORK-supplied ε: the per-request
  /// "epsilon" override on /v1/query|/v1/topk and the per-tenant
  /// "options.epsilon" of POST /v1/graphs (which any client can call).
  /// Query cost grows rapidly as ε shrinks, so an unbounded value
  /// would let any client buy an arbitrarily expensive query; values
  /// below the floor get a 400. Operator-set options (CLI flags,
  /// AddGraph calls) are NOT subject to this floor. The check is
  /// fail-closed: a non-sensical floor (NaN from a misparsed embedder
  /// config) rejects every network-supplied ε rather than accepting
  /// all of them; simpush_serve additionally validates the flag at
  /// startup.
  double min_request_epsilon = 1e-3;
  /// Maximum nodes accepted in one /v1/batch request (larger → 413).
  size_t max_batch_nodes = 4096;
  /// Maximum edge updates in one /v1/graphs/{name}/edges request
  /// (larger → 413).
  size_t max_update_edges = 65536;
  /// Allow POST /v1/graphs to load from a server-local "path". Off by
  /// default: the path arrives from the network, so enabling it lets
  /// any client make the server read (and probe for) arbitrary local
  /// files. Turn on (simpush_serve --allow-path-create 1) only when
  /// every client is trusted; inline edge creates are always allowed.
  bool allow_path_create = false;
  /// Default per-request deadline for query/topk/batch requests that
  /// carry no "deadline_ms" field, in milliseconds (0 = no default
  /// deadline — requests without the field run to completion). A
  /// request whose deadline expires aborts cooperatively in the engine
  /// and answers 504 with partial timing.
  int request_timeout_ms = 0;
  /// Upper bound for the client-supplied "deadline_ms" field (larger
  /// values get a 400). The field is network-controlled; without a cap
  /// a client could pin a worker for an arbitrary time.
  int max_deadline_ms = 60000;
  /// Tenant served when a request has no "graph" field.
  std::string default_graph = "default";
};

/// The SimPush query service over a GraphRegistry.
class SimPushService {
 public:
  /// An empty service: add graphs with AddGraph (or over HTTP).
  explicit SimPushService(const ServiceOptions& options);

  /// Registers `graph` under `name` with per-tenant engine options:
  /// every generation of this tenant — including hot swaps — runs with
  /// `tenant_options`, independent of other tenants and of the process
  /// defaults. A forward to GraphRegistry::Add, with its error
  /// contract; a rejected graph is not registered, so callers
  /// (simpush_serve) exit on it.
  Status AddGraph(const std::string& name, Graph graph,
                  const SimPushOptions& tenant_options) {
    return registry_.Add(name, std::move(graph), tenant_options);
  }

  /// Registers all endpoints on `server` (call before server.Start()).
  /// The service keeps the pointer to surface the server's admission
  /// counters in /v1/stats; the server must outlive the service's use.
  void RegisterRoutes(HttpServer* server);

  /// The serve hot path: runs one single-source query against the
  /// named graph's current generation, into caller-owned reused result
  /// buffers. Consults the generation's result cache first (a hit is
  /// bit-identical to a fresh run by the determinism contract). Blocks
  /// only while the registry's workspace pool is exhausted — never
  /// on a hot swap. Zero heap allocations in steady state (warm
  /// workspace + warm result; cache hits copy into the warm result),
  /// verified by serve_test and registry_test.
  Status RunQuery(std::string_view graph_name, NodeId u,
                  SimPushResult* result);

  /// The /v1/query and /v1/batch rows, for bench/e2e's timing wrappers;
  /// tests and simpush_serve reach every row through RegisterRoutes.
  /// Each is concurrency-safe and a thin entry into the one route shell.
  HttpResponse HandleQuery(const HttpRequest& request);
  HttpResponse HandleBatch(const HttpRequest& request);
  /// Dispatcher for /v1/graphs/{name}[/edges|/swap|/options] (prefix
  /// route): picks the route-table row by (operation, method).
  HttpResponse HandleGraphOp(const HttpRequest& request);

  /// The registry backing this service.
  GraphRegistry& registry() { return registry_; }

 private:
  /// The "requests" counters of /v1/stats; every route row names one.
  /// Query endpoints count the requests they served, admin endpoints
  /// every request they were handed, kUncounted routes neither.
  enum Counter : size_t { kQuery, kTopK, kBatch, kAdmin, kUncounted };

  struct Call;   // service.cc: one request moving through the route shell.
  struct Route;  // service.cc: a row of the route table and its steps.

  /// The one cache-then-run path for a single query (RunQuery and the
  /// query/topk endpoints): consults the generation's result cache under
  /// the caller's lease and on a miss runs the query on a workspace
  /// leased from the registry's pool — with the tenant's core, or,
  /// for a per-request ε `epsilon`, with a throwaway core for that ε —
  /// adds its stats to the /v1/stats engine counters, then inserts the
  /// result best-effort. With a non-null `top` the read is ranked: a
  /// hit copies the cached top `k` into `*top` and only the stats into
  /// `*result`, and a miss ranks the computed scores into `*top`; for
  /// k <= ResultCache::kRankedPrefix the miss caches only that ranking
  /// (ResultCache::InsertRanked), otherwise the full vector. With a
  /// null `top` `*result` gets the full score vector. `*cached`
  /// reports whether the answer came from the cache. `cancel`
  /// (nullable) is polled in the pool wait and cooperatively inside
  /// the engine.
  Status ServeOne(const GraphGeneration& generation, NodeId u,
                  std::optional<double> epsilon, SimPushResult* result,
                  std::vector<TopKEntry>* top, size_t k,
                  const CancelToken* cancel, bool* cached);
  /// The route shell every row runs: count → [graph name check] →
  /// [parse body] → decode → run → encode → finish. `graph` and `op` are
  /// the {name} and operation of a /v1/graphs/{name}[/op] target.
  HttpResponse Serve(const Route& route, const HttpRequest& request,
                     std::string_view graph = {}, std::string_view op = {});
  /// The one way a request fails: maps `status` onto its HTTP code and
  /// body and bumps the counter the failure belongs to (service.cc
  /// holds the table; docs/serving.md lists it).
  HttpResponse ErrorResponse(const Status& status, const Call& call);
  /// The members of the /v1/stats object.
  void WriteStats(JsonWriter* writer);
  void WriteTenantSection(JsonWriter* writer, const std::string& name);

  const ServiceOptions options_;
  GraphRegistry registry_;
  HttpServer* server_ = nullptr;  // For admission counters in /v1/stats.
  Timer uptime_;

  std::atomic<uint64_t> requests_[kUncounted] = {};
  std::atomic<uint64_t> nodes_scored_{0};
  std::atomic<uint64_t> bad_requests_{0};
  std::atomic<uint64_t> deadline_expired_{0};   // 504s, all graphs.
  std::atomic<uint64_t> client_abandoned_{0};   // 499s, all graphs.
  // Engine-side totals summed from each computed query's
  // SimPushQueryStats: CPU seconds spent inside queries and
  // level-detection walks, all endpoints.
  std::atomic<uint64_t> engine_query_nanos_{0};
  std::atomic<uint64_t> engine_walks_{0};

  // All requests, all graphs; each tenant's own ring is on its
  // TenantCounters.
  LatencyRing latency_;
};

/// Installs SIGTERM/SIGINT handlers that mark shutdown as requested
/// (async-signal-safe flag only; no work happens in the handler).
void InstallShutdownSignalHandlers();

/// Blocks the calling thread until a shutdown signal arrives. The
/// caller then runs HttpServer::Shutdown() to drain gracefully.
void WaitForShutdownSignal();

}  // namespace serve
}  // namespace simpush

#endif  // SIMPUSH_SERVE_SERVICE_H_
