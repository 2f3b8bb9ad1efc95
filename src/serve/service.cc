#include "serve/service.h"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/memory.h"
#include "graph/graph_builder.h"
#include "graph/graph_io.h"
#include "serve/json.h"
#include "serve/request_fields.h"
#include "simpush/parallel.h"
#include "simpush/topk.h"
#include "simpush/workspace.h"

namespace simpush {
namespace serve {

namespace {

// Builds {"error": message} with a trailing newline (curl-friendly).
HttpResponse JsonError(int status, std::string_view message) {
  JsonWriter writer;
  writer.BeginObject();
  writer.Key("error");
  writer.String(message);
  writer.EndObject();
  HttpResponse response;
  response.status = status;
  response.body = writer.Take();
  response.body.push_back('\n');
  return response;
}

// Maps a registry Status onto the admin API's HTTP vocabulary.
int StatusToHttp(const Status& status) {
  switch (status.code()) {
    case StatusCode::kNotFound: return 404;
    case StatusCode::kFailedPrecondition: return 409;  // name taken
    case StatusCode::kOutOfRange: return 409;          // graph limit
    default: return 400;
  }
}

HttpResponse JsonError(const Status& status) {
  return JsonError(StatusToHttp(status), status.message());
}

void WriteTopEntries(JsonWriter* writer,
                     const std::vector<TopKEntry>& entries) {
  writer->BeginArray();
  for (const TopKEntry& entry : entries) {
    writer->BeginObject();
    writer->Key("node");
    writer->Uint(entry.node);
    writer->Key("score");
    writer->Double(entry.score);
    writer->EndObject();
  }
  writer->EndArray();
}

void WriteQueryStats(JsonWriter* writer, const SimPushQueryStats& stats) {
  writer->BeginObject();
  writer->Key("max_level");
  writer->Uint(stats.max_level);
  writer->Key("num_attention");
  writer->Uint(stats.num_attention);
  writer->Key("walks_sampled");
  writer->Uint(stats.walks_sampled);
  writer->Key("reverse_pushes");
  writer->Uint(stats.reverse_pushes);
  writer->Key("total_ms");
  writer->Double(stats.total_seconds * 1e3);
  writer->EndObject();
}

void WriteLatency(JsonWriter* writer, const LatencySnapshot& latency) {
  writer->BeginObject();
  writer->Key("samples");
  writer->Uint(latency.samples);
  writer->Key("p50");
  writer->Double(latency.p50_ms);
  writer->Key("p90");
  writer->Double(latency.p90_ms);
  writer->Key("p99");
  writer->Double(latency.p99_ms);
  writer->Key("max");
  writer->Double(latency.max_ms);
  writer->EndObject();
}

// Writes the "pool": {capacity, created, outstanding} gauges — shared
// by the per-tenant sections and the single-graph compatibility block.
void WritePoolGauges(JsonWriter* writer, const TenantStats& stats) {
  writer->Key("pool");
  writer->BeginObject();
  writer->Key("capacity");
  writer->Uint(stats.pool_capacity);
  writer->Key("created");
  writer->Uint(stats.pool_created);
  writer->Key("outstanding");
  writer->Uint(stats.pool_outstanding);
  writer->EndObject();
}

// 504/499 body: the error plus partial timing, so a client (or its
// operator) can see how far past the budget the query got and which
// generation it ran against.
HttpResponse TimeoutError(int status, std::string_view message,
                          double elapsed_ms, int64_t deadline_ms,
                          std::string_view graph, uint64_t generation) {
  JsonWriter writer;
  writer.BeginObject();
  writer.Key("error");
  writer.String(message);
  writer.Key("elapsed_ms");
  writer.Double(elapsed_ms);
  writer.Key("deadline_ms");
  writer.Uint(deadline_ms > 0 ? static_cast<uint64_t>(deadline_ms) : 0);
  writer.Key("graph");
  writer.String(graph);
  writer.Key("generation");
  writer.Uint(generation);
  writer.EndObject();
  HttpResponse response;
  response.status = status;
  response.body = writer.Take();
  response.body.push_back('\n');
  return response;
}

// Writes the epsilon/decay/delta/seed/walk_budget_cap members into the
// writer's currently-open object — the one field list shared by the
// process-default and per-tenant options sections of /v1/stats, so the
// two shapes cannot drift.
void WriteEngineOptionFields(JsonWriter* writer,
                             const SimPushOptions& options) {
  writer->Key("epsilon");
  writer->Double(options.epsilon);
  writer->Key("decay");
  writer->Double(options.decay);
  writer->Key("delta");
  writer->Double(options.delta);
  writer->Key("seed");
  writer->Uint(options.seed);
  writer->Key("walk_budget_cap");
  writer->Uint(options.walk_budget_cap);
}

// The same fields as a complete object (per-tenant sections, the
// graph-create echo).
void WriteEngineOptions(JsonWriter* writer, const SimPushOptions& options) {
  writer->BeginObject();
  WriteEngineOptionFields(writer, options);
  writer->EndObject();
}

RegistryOptions ToRegistryOptions(const ServiceOptions& options) {
  RegistryOptions registry_options;
  registry_options.query = options.query;
  registry_options.num_threads = options.num_threads;
  registry_options.pool_capacity = options.pool_capacity;
  registry_options.swap_threshold = options.swap_threshold;
  registry_options.max_graphs = options.max_graphs;
  registry_options.cache_bytes = options.cache_bytes;
  return registry_options;
}

}  // namespace

// ---------------------------------------------------------------------------
// The query pipeline. /v1/query, /v1/topk and /v1/batch run one chain —
// parse → decode → lease → bind nodes → deadline → cancel token → run →
// error mapping → counters → encode → latency — and differ only in the
// decode and encode hooks of their kQueryEndpoints row.
// ---------------------------------------------------------------------------

// One query-endpoint request as it moves through the pipeline.
struct QueryCall {
  // Decoded before the lease.
  uint64_t node = 0;                     // /v1/query, /v1/topk.
  const JsonValue* node_list = nullptr;  // /v1/batch: the "nodes" array.
  uint64_t k = 0;  // /v1/query: top_k (0 = full score vector); else k.
  bool with_stats = false;
  // Resolved against the leased generation.
  std::string graph_name;
  GenerationLease generation;
  std::vector<NodeId> nodes;  // One per requested position.
  // Run output of a single query (node_list == nullptr)...
  const SimPushResult* result = nullptr;
  double epsilon = 0;  // The ε that produced `result`.
  bool cached = false;
  // ...or of a batch: one entry per distinct node, fanned back to the
  // requested positions through slot.
  std::vector<BatchTopKResult> batch;
  std::vector<size_t> slot;
  double wall_ms = 0;
};

namespace {

// An endpoint's hooks: decode reads its fields before the lease (a
// kOutOfRange status answers 413, any other 400); encode writes its
// response members.
struct QueryEndpoint {
  const char* path;
  Status (*decode)(const JsonValue& doc, const ServiceOptions& options,
                   QueryCall* call);
  void (*encode)(const QueryCall& call, JsonWriter* writer);
};

Status DecodeQuery(const JsonValue& doc, const ServiceOptions&,
                   QueryCall* call) {
  SIMPUSH_ASSIGN_OR_RETURN(call->node, RequireIndex(doc, "node"));
  SIMPUSH_ASSIGN_OR_RETURN(call->k, OptionalIndex(doc, "top_k", 0));
  if (const JsonValue* field = doc.Find("with_stats")) {
    call->with_stats = field->is_bool() && field->bool_value();
  }
  return Status::OK();
}

Status DecodeTopK(const JsonValue& doc, const ServiceOptions&,
                  QueryCall* call) {
  SIMPUSH_ASSIGN_OR_RETURN(call->node, RequireIndex(doc, "node"));
  SIMPUSH_ASSIGN_OR_RETURN(call->k, OptionalIndex(doc, "k", 10));
  return Status::OK();
}

Status DecodeBatch(const JsonValue& doc, const ServiceOptions& options,
                   QueryCall* call) {
  call->node_list = doc.Find("nodes");
  if (call->node_list == nullptr || !call->node_list->is_array()) {
    return Status::InvalidArgument("missing \"nodes\" array");
  }
  if (call->node_list->array_items().size() > options.max_batch_nodes) {
    return Status::OutOfRange("batch exceeds max_batch_nodes (" +
                              std::to_string(options.max_batch_nodes) + ")");
  }
  SIMPUSH_ASSIGN_OR_RETURN(call->k, OptionalIndex(doc, "k", 10));
  return Status::OK();
}

// Range-checks the requested ids against the leased graph before
// narrowing them to NodeId — a 64-bit id must not wrap into a valid node
// and silently answer for the wrong vertex.
Status BindNodes(const Graph& graph, QueryCall* call) {
  const uint64_t n = graph.num_nodes();
  if (call->node_list == nullptr) {
    if (call->node >= n) {
      return Status::InvalidArgument("node " + std::to_string(call->node) +
                                     " out of range [0, " +
                                     std::to_string(n) + ")");
    }
    call->nodes.push_back(static_cast<NodeId>(call->node));
    return Status::OK();
  }
  call->nodes.reserve(call->node_list->array_items().size());
  for (const JsonValue& item : call->node_list->array_items()) {
    auto node = item.AsIndex();
    if (!node.ok() || *node >= n) {
      return Status::InvalidArgument(
          "\"nodes\" entries must be node ids in [0, " + std::to_string(n) +
          ")");
    }
    call->nodes.push_back(static_cast<NodeId>(*node));
  }
  return Status::OK();
}

// The members /v1/query and /v1/topk responses open with.
void EncodeSingleHead(const QueryCall& call, JsonWriter* writer) {
  writer->Key("node");
  writer->Uint(call.node);
  writer->Key("graph");
  writer->String(call.graph_name);
  writer->Key("generation");
  writer->Uint(call.generation->id());
  // The ε that actually produced these scores: request override >
  // tenant options (never the process-wide default).
  writer->Key("epsilon");
  writer->Double(call.epsilon);
  // Stamped only when served from the result cache; the scores are
  // byte-identical to a computed response either way.
  if (call.cached) {
    writer->Key("cached");
    writer->Bool(true);
  }
}

void EncodeQuery(const QueryCall& call, JsonWriter* writer) {
  EncodeSingleHead(call, writer);
  const SimPushResult& result = *call.result;
  if (call.k > 0) {
    writer->Key("top");
    WriteTopEntries(writer, SelectTopK(result.scores, call.k, call.nodes[0]));
  } else {
    writer->Key("scores");
    writer->BeginArray();
    for (const double score : result.scores) writer->Double(score);
    writer->EndArray();
  }
  if (call.with_stats) {
    writer->Key("stats");
    WriteQueryStats(writer, result.stats);
  }
}

void EncodeTopK(const QueryCall& call, JsonWriter* writer) {
  EncodeSingleHead(call, writer);
  writer->Key("k");
  writer->Uint(call.k);
  writer->Key("top");
  WriteTopEntries(writer,
                  SelectTopK(call.result->scores, call.k, call.nodes[0]));
}

void EncodeBatch(const QueryCall& call, JsonWriter* writer) {
  writer->Key("graph");
  writer->String(call.graph_name);
  writer->Key("generation");
  writer->Uint(call.generation->id());
  writer->Key("k");
  writer->Uint(call.k);
  writer->Key("wall_ms");
  writer->Double(call.wall_ms);
  // How much the dedup saved is visible per response: M ≤ N distinct
  // sources were actually scored for the N requested positions.
  writer->Key("nodes");
  writer->Uint(call.nodes.size());
  writer->Key("unique_nodes");
  writer->Uint(call.batch.size());
  writer->Key("results");
  writer->BeginArray();
  for (const size_t slot : call.slot) {
    writer->BeginObject();
    writer->Key("node");
    writer->Uint(call.batch[slot].query);
    writer->Key("top");
    WriteTopEntries(writer, call.batch[slot].topk);
    writer->EndObject();
  }
  writer->EndArray();
}

// Indexed by SimPushService::Endpoint.
constexpr QueryEndpoint kQueryEndpoints[] = {
    {"/v1/query", DecodeQuery, EncodeQuery},
    {"/v1/topk", DecodeTopK, EncodeTopK},
    {"/v1/batch", DecodeBatch, EncodeBatch},
};

}  // namespace

SimPushService::SimPushService(const ServiceOptions& options)
    : options_(options),
      registry_(ToRegistryOptions(options)),
      latency_(options.latency_ring_size) {}

SimPushService::SimPushService(const Graph& graph,
                               const ServiceOptions& options)
    : SimPushService(options) {
  // Compatibility shape: one tenant under the default name. A copy is
  // taken so the registry owns its master/generation lifecycle. A
  // rejection (bad options / bad default name) is RECORDED, not
  // swallowed: /healthz turns 503 and /v1/stats carries the error
  // until a later AddGraph installs the default graph. Tools should
  // additionally check AddGraph up front and exit non-zero, as
  // simpush_serve does.
  const Status added = AddGraph(options_.default_graph, graph);
  if (!added.ok()) {
    MutexLock lock(&startup_mu_);
    startup_status_ = added;
  }
}

Status SimPushService::startup_status() const {
  MutexLock lock(&startup_mu_);
  return startup_status_;
}

// The metrics map must track the registry under concurrent add/remove
// of one name WITHOUT metrics_mu_ ever covering the registry's O(n+m)
// build (that would stall every handler's FindMetrics for the whole
// build). AddGraph installs a FRESH metrics object only after the
// registry accepted the name; RemoveGraph erases only the exact object
// it observed before removing, so a racing re-add's fresh metrics can
// never be deleted out from under the new graph, and a re-added graph
// can never inherit the old graph's counters.
Status SimPushService::AddGraph(const std::string& name, Graph graph) {
  return AddGraph(name, std::move(graph), options_.query);
}

Status SimPushService::AddGraph(const std::string& name, Graph graph,
                                const SimPushOptions& tenant_options) {
  SIMPUSH_RETURN_NOT_OK(registry_.Add(name, std::move(graph),
                                      tenant_options));
  {
    MutexLock lock(&metrics_mu_);
    tenant_metrics_.insert_or_assign(
        name, std::make_shared<TenantMetrics>(options_.latency_ring_size));
  }
  if (name == options_.default_graph) {
    // The default graph is installed: a startup failure (if any) is no
    // longer the serving truth, so /healthz may recover.
    MutexLock lock(&startup_mu_);
    startup_status_ = Status::OK();
  }
  return Status::OK();
}

Status SimPushService::RemoveGraph(std::string_view name) {
  const std::shared_ptr<TenantMetrics> observed = FindMetrics(name);
  SIMPUSH_RETURN_NOT_OK(registry_.Remove(name));
  MutexLock lock(&metrics_mu_);
  const auto it = tenant_metrics_.find(name);
  if (it != tenant_metrics_.end() && it->second == observed) {
    tenant_metrics_.erase(it);
  }
  return Status::OK();
}

void SimPushService::RegisterRoutes(HttpServer* server) {
  server_ = server;
  for (const Endpoint endpoint : {kQuery, kTopK, kBatch}) {
    server->Route("POST", kQueryEndpoints[endpoint].path,
                  [this, endpoint](const HttpRequest& r) {
                    return ServeQueryEndpoint(endpoint, r);
                  });
  }
  server->Route("GET", "/v1/stats",
                [this](const HttpRequest& r) { return HandleStats(r); });
  server->Route("GET", "/healthz",
                [this](const HttpRequest& r) { return HandleHealth(r); });
  server->Route("GET", "/v1/graphs",
                [this](const HttpRequest& r) { return HandleGraphList(r); });
  server->Route("POST", "/v1/graphs",
                [this](const HttpRequest& r) { return HandleGraphCreate(r); });
  for (const char* method : {"GET", "POST", "DELETE", "PATCH"}) {
    server->RoutePrefix(method, "/v1/graphs/", [this](const HttpRequest& r) {
      return HandleGraphOp(r);
    });
  }
}

std::shared_ptr<SimPushService::TenantMetrics> SimPushService::FindMetrics(
    std::string_view name) const {
  MutexLock lock(&metrics_mu_);
  const auto it = tenant_metrics_.find(name);
  return it == tenant_metrics_.end() ? nullptr : it->second;
}

HttpResponse SimPushService::QueryErrorResponse(
    const Status& status, double elapsed_ms, int64_t deadline_ms,
    std::string_view graph_name, uint64_t generation,
    const std::shared_ptr<TenantMetrics>& metrics) {
  // kCancelled beats kDeadlineExceeded in CancelToken::Check, so a
  // request that was BOTH late and abandoned counts as abandoned — the
  // 499 is best-effort (nobody is reading it), but the counter is the
  // operator's signal that clients are hanging up, not timing out.
  if (status.code() == StatusCode::kCancelled) {
    client_abandoned_.fetch_add(1);
    if (metrics != nullptr) metrics->client_abandoned.fetch_add(1);
    return TimeoutError(499, "client closed request", elapsed_ms,
                        deadline_ms, graph_name, generation);
  }
  if (status.code() == StatusCode::kDeadlineExceeded) {
    deadline_expired_.fetch_add(1);
    if (metrics != nullptr) metrics->deadline_expired.fetch_add(1);
    return TimeoutError(504, "deadline exceeded", elapsed_ms, deadline_ms,
                        graph_name, generation);
  }
  bad_requests_.fetch_add(1);
  return JsonError(400, status.message());
}

Status SimPushService::RunQuery(std::string_view graph_name, NodeId u,
                                SimPushResult* result) {
  SIMPUSH_ASSIGN_OR_RETURN(const GenerationLease lease,
                           registry_.Lease(graph_name));
  bool cached = false;
  return ServeOne(*lease, u, std::nullopt, result, /*cancel=*/nullptr,
                  &cached);
}

Status SimPushService::RunQuery(NodeId u, SimPushResult* result) {
  return RunQuery(options_.default_graph, u, result);
}

void SimPushService::AccumulateEngineTotals(const QueryRunnerTotals& totals) {
  engine_query_nanos_.fetch_add(
      static_cast<uint64_t>(totals.query_seconds * 1e9));
  engine_walks_.fetch_add(totals.walks_sampled);
}

StatusOr<GenerationLease> SimPushService::LeaseFor(const JsonValue& doc,
                                                   std::string* name_out) {
  std::string_view name = options_.default_graph;
  if (const JsonValue* field = doc.Find("graph")) {
    if (!field->is_string()) {
      return Status::InvalidArgument("\"graph\" must be a string");
    }
    name = field->string_value();
  }
  if (name_out != nullptr) *name_out = name;
  return registry_.Lease(name);
}

Status SimPushService::ServeOne(const GraphGeneration& generation, NodeId u,
                                std::optional<double> epsilon,
                                SimPushResult* result,
                                const CancelToken* cancel, bool* cached) {
  // Cache key: the fingerprint of the MERGED effective options. With no
  // override this is the generation's precomputed fingerprint; an
  // override re-fingerprints the tenant options with the request's ε,
  // so an override that merely restates the tenant's own ε
  // canonicalizes onto the same entry, while a different ε keys
  // separately. Either way a hit is sound: scores are a bit-exact
  // function of (generation, effective options, node), independent of
  // which execution path would have computed them.
  ResultCache* const cache = generation.cache();
  uint64_t fingerprint = generation.options_fingerprint();
  SimPushOptions merged;
  if (epsilon.has_value()) {
    merged = generation.core().options();
    merged.epsilon = *epsilon;
    fingerprint = OptionsFingerprint(merged);
  }
  *cached = cache != nullptr && cache->Get(u, fingerprint, result);
  if (*cached) return Status::OK();

  const auto run = [&](QueryRunner& runner) {
    const Status status = runner.QueryInto(u, result);
    AccumulateEngineTotals(runner.totals());
    return status;
  };
  if (!epsilon.has_value()) {
    // Lease one pooled workspace for this query; construction blocks
    // while all `pool_capacity` workspaces are in flight, which is the
    // backpressure that bounds query-scratch memory under load (a fired
    // `cancel` unblocks the wait). The caller's generation lease is what
    // a hot swap can never invalidate.
    QueryRunner runner(generation.core(), generation.workspaces(), cancel);
    SIMPUSH_RETURN_NOT_OK(run(runner));
  } else {
    // The AdaptiveTopK per-round-core pattern: derived parameters are
    // cheap to recompute, so an override query builds a throwaway core
    // for its ε over the leased generation's graph. It deliberately does
    // NOT touch the generation's workspace pool — a private workspace
    // keeps override traffic from competing for (or resizing) the
    // pooled scratch that serves the tenant's configured-ε hot path.
    EngineCore core(generation.graph(), merged);
    SIMPUSH_RETURN_NOT_OK(core.options_status());
    QueryWorkspace workspace;
    QueryRunner runner(core, &workspace);
    runner.set_cancellation(cancel);
    SIMPUSH_RETURN_NOT_OK(run(runner));
  }
  // Best-effort: a rejected insert (budget, admission duel, injected
  // failure) just means this computed answer is served uncached.
  if (cache != nullptr) cache->Insert(u, fingerprint, *result);
  return Status::OK();
}

Status SimPushService::RunCall(const JsonValue& doc, QueryCall* call,
                               const CancelToken* cancel) {
  const GraphGeneration& generation = *call->generation;
  if (call->node_list == nullptr) {
    std::optional<double> epsilon;
    SIMPUSH_RETURN_NOT_OK(
        ReadEpsilonOverride(doc, options_.min_request_epsilon, &epsilon));
    call->epsilon = epsilon.value_or(generation.core().options().epsilon);
    // Reused per HTTP worker thread: after warm-up the pooled path
    // performs zero heap allocations. Override requests run off this hot
    // path by design (fresh core + private workspace) and may allocate.
    static thread_local SimPushResult result;
    call->result = &result;
    return ServeOne(generation, call->nodes[0], epsilon, &result, cancel,
                    &call->cached);
  }

  // Deduplicate repeated sources: each distinct node is scored once and
  // its result fanned back to every position that asked for it — sound
  // for the same reason the cache is (scores are a pure function of
  // (generation, options, node)). slot[i] maps input position i to its
  // entry in unique_nodes, which preserves first-occurrence order.
  std::vector<NodeId> unique_nodes;
  call->slot.resize(call->nodes.size());
  {
    std::unordered_map<NodeId, size_t> first_index;
    first_index.reserve(call->nodes.size());
    unique_nodes.reserve(call->nodes.size());
    for (size_t i = 0; i < call->nodes.size(); ++i) {
      const auto [it, inserted] =
          first_index.emplace(call->nodes[i], unique_nodes.size());
      if (inserted) unique_nodes.push_back(call->nodes[i]);
      call->slot[i] = it->second;
    }
  }

  // Fan out across the registry's shared thread pool, one workspace from
  // this generation's pool per chunk, results in input order. The lease
  // pins the generation for the whole fan-out, so every chunk scores the
  // same graph even if a swap lands mid-batch. A fired token stops
  // chunks between queries and inside each query's push loops.
  ParallelBatchStats stats;
  auto results = ParallelQueryBatchTopK(
      generation.core(), registry_.thread_pool(), generation.workspaces(),
      unique_nodes, call->k, &stats, cancel);
  if (!results.ok()) {
    // A fired token keeps its 504/499 mapping; any other failure answers
    // 400 with the full status text.
    const StatusCode code = results.status().code();
    if (code == StatusCode::kCancelled ||
        code == StatusCode::kDeadlineExceeded) {
      return results.status();
    }
    return Status::InvalidArgument(results.status().ToString());
  }
  engine_query_nanos_.fetch_add(
      static_cast<uint64_t>(stats.cpu_query_seconds * 1e9));
  engine_walks_.fetch_add(stats.walks_sampled);
  call->wall_ms = stats.wall_seconds * 1e3;
  call->batch = *std::move(results);
  return Status::OK();
}

HttpResponse SimPushService::ServeQueryEndpoint(Endpoint endpoint,
                                                const HttpRequest& request) {
  Timer wall;
  const QueryEndpoint& hooks = kQueryEndpoints[endpoint];
  // Rejections before the run: an unknown graph is a 404, an over-limit
  // request (kOutOfRange) a 413, anything else a 400.
  const auto reject = [this](const Status& status) {
    bad_requests_.fetch_add(1);
    return JsonError(
        status.code() == StatusCode::kOutOfRange ? 413 : StatusToHttp(status),
        status.message());
  };
  auto doc = ParseJson(request.body);
  if (!doc.ok()) return reject(doc.status());
  if (!doc->is_object()) {
    return reject(
        Status::InvalidArgument("request body must be a JSON object"));
  }
  QueryCall call;
  if (const Status decoded = hooks.decode(*doc, options_, &call);
      !decoded.ok()) {
    return reject(decoded);
  }
  auto lease = LeaseFor(*doc, &call.graph_name);
  if (!lease.ok()) return reject(lease.status());
  call.generation = *std::move(lease);
  if (const Status bound = BindNodes(call.generation->graph(), &call);
      !bound.ok()) {
    return reject(bound);
  }
  const auto deadline_ms = ReadDeadlineMs(*doc, options_.request_timeout_ms,
                                          options_.max_deadline_ms);
  if (!deadline_ms.ok()) return reject(deadline_ms.status());

  // Token before guard: the guard must die first (it unregisters the raw
  // token pointer from the watcher's poll set).
  CancelToken token(Deadline::After(*deadline_ms));
  const auto watch = watcher_.Watch(request.client_fd, &token);
  const auto metrics = FindMetrics(call.graph_name);
  if (const Status ran = RunCall(*doc, &call, &token); !ran.ok()) {
    return QueryErrorResponse(ran, wall.ElapsedSeconds() * 1e3, *deadline_ms,
                              call.graph_name, call.generation->id(),
                              metrics);
  }
  endpoint_requests_[endpoint].fetch_add(1);
  nodes_scored_.fetch_add(call.nodes.size());
  if (metrics != nullptr) {
    metrics->requests.fetch_add(1);
    metrics->nodes_scored.fetch_add(call.nodes.size());
  }

  JsonWriter writer;
  writer.BeginObject();
  hooks.encode(call, &writer);
  writer.EndObject();
  HttpResponse response;
  response.body = writer.Take();
  response.body.push_back('\n');
  RecordLatency(metrics, wall.ElapsedSeconds());
  return response;
}

HttpResponse SimPushService::HandleQuery(const HttpRequest& request) {
  return ServeQueryEndpoint(kQuery, request);
}

HttpResponse SimPushService::HandleTopK(const HttpRequest& request) {
  return ServeQueryEndpoint(kTopK, request);
}

HttpResponse SimPushService::HandleBatch(const HttpRequest& request) {
  return ServeQueryEndpoint(kBatch, request);
}

void SimPushService::WriteTenantSection(JsonWriter* writer,
                                        const std::string& name) {
  auto stats = registry_.Stats(name);
  writer->BeginObject();
  if (stats.ok()) {
    writer->Key("generation");
    writer->Uint(stats->generation);
    // THIS tenant's effective engine options (not the process-wide
    // defaults) and the generation they took effect in.
    writer->Key("options");
    WriteEngineOptions(writer, stats->options);
    writer->Key("options_generation");
    writer->Uint(stats->options_generation);
    writer->Key("swap_count");
    writer->Uint(stats->swap_count);
    // Delta-publish observability: how many swaps took the incremental
    // path, how long the last publish took, and the dirty-row cost the
    // next one will pay.
    writer->Key("delta_swaps");
    writer->Uint(stats->delta_swaps);
    writer->Key("last_swap_ms");
    writer->Double(stats->last_swap_ms);
    writer->Key("dirty_vertices");
    writer->Uint(stats->dirty_vertices);
    writer->Key("pending_updates");
    writer->Uint(stats->pending_updates);
    writer->Key("updates_applied");
    writer->Uint(stats->updates_applied);
    writer->Key("nodes");
    writer->Uint(stats->num_nodes);
    writer->Key("edges");
    writer->Uint(stats->num_edges);
    writer->Key("master_edges");
    writer->Uint(stats->master_edges);
    WritePoolGauges(writer, *stats);
    // Result-cache stats: counters are tenant-lifetime (they survive
    // swaps), occupancy is the current generation's cache.
    writer->Key("cache");
    writer->BeginObject();
    writer->Key("enabled");
    writer->Bool(stats->cache_budget_bytes > 0);
    writer->Key("budget_bytes");
    writer->Uint(stats->cache_budget_bytes);
    writer->Key("bytes");
    writer->Uint(stats->cache_bytes);
    writer->Key("entries");
    writer->Uint(stats->cache_entries);
    writer->Key("hits");
    writer->Uint(stats->cache_hits);
    writer->Key("misses");
    writer->Uint(stats->cache_misses);
    writer->Key("inserts");
    writer->Uint(stats->cache_inserts);
    writer->Key("evictions");
    writer->Uint(stats->cache_evictions);
    writer->Key("admission_rejects");
    writer->Uint(stats->cache_admission_rejects);
    writer->Key("insert_failures");
    writer->Uint(stats->cache_insert_failures);
    writer->EndObject();
  }
  if (const auto metrics = FindMetrics(name)) {
    writer->Key("requests");
    writer->Uint(metrics->requests.load());
    writer->Key("nodes_scored");
    writer->Uint(metrics->nodes_scored.load());
    writer->Key("deadline_expired");
    writer->Uint(metrics->deadline_expired.load());
    writer->Key("client_abandoned");
    writer->Uint(metrics->client_abandoned.load());
    writer->Key("latency_ms");
    WriteLatency(writer, metrics->latency.Snapshot());
  }
  writer->EndObject();
}

HttpResponse SimPushService::HandleStats(const HttpRequest&) {
  const uint64_t query = endpoint_requests_[kQuery].load();
  const uint64_t topk = endpoint_requests_[kTopK].load();
  const uint64_t batch = endpoint_requests_[kBatch].load();
  const double uptime = uptime_.ElapsedSeconds();
  const LatencySnapshot latency = Latencies();

  JsonWriter writer;
  writer.BeginObject();
  writer.Key("uptime_seconds");
  writer.Double(uptime);
  // Compatibility sections for the single-graph shape: the default
  // tenant's graph and pool, when it exists.
  if (auto stats = registry_.Stats(options_.default_graph); stats.ok()) {
    writer.Key("graph");
    writer.BeginObject();
    writer.Key("nodes");
    writer.Uint(stats->num_nodes);
    writer.Key("edges");
    writer.Uint(stats->num_edges);
    writer.EndObject();
    WritePoolGauges(&writer, *stats);
  }
  // Process-wide DEFAULTS for tenants created without "options" — each
  // tenant's effective knobs live in its own section under "graphs".
  writer.Key("options");
  writer.BeginObject();
  WriteEngineOptionFields(&writer, options_.query);
  writer.Key("min_request_epsilon");
  writer.Double(options_.min_request_epsilon);
  writer.Key("swap_threshold");
  writer.Uint(options_.swap_threshold);
  writer.Key("default_graph");
  writer.String(options_.default_graph);
  writer.EndObject();
  if (const Status startup = startup_status(); !startup.ok()) {
    writer.Key("startup_error");
    writer.String(startup.ToString());
  }
  writer.Key("requests");
  writer.BeginObject();
  writer.Key("query");
  writer.Uint(query);
  writer.Key("topk");
  writer.Uint(topk);
  writer.Key("batch");
  writer.Uint(batch);
  writer.Key("admin");
  writer.Uint(admin_requests_.load());
  writer.Key("bad");
  writer.Uint(bad_requests_.load());
  writer.Key("deadline_expired");
  writer.Uint(deadline_expired_.load());
  writer.Key("client_abandoned");
  writer.Uint(client_abandoned_.load());
  writer.Key("nodes_scored");
  writer.Uint(nodes_scored_.load());
  writer.EndObject();
  writer.Key("qps");
  writer.Double(uptime > 0 ? (query + topk + batch) / uptime : 0);
  writer.Key("latency_ms");
  WriteLatency(&writer, latency);
  // Per-tenant sections: generation id, pending updates, swap counts,
  // per-tenant latency rings.
  writer.Key("graphs");
  writer.BeginObject();
  for (const std::string& name : registry_.Names()) {
    writer.Key(name);
    WriteTenantSection(&writer, name);
  }
  writer.EndObject();
  writer.Key("live_generations");
  writer.Uint(static_cast<uint64_t>(
      std::max<int64_t>(0, registry_.live_generations())));
  writer.Key("engine");
  writer.BeginObject();
  writer.Key("cpu_query_seconds");
  writer.Double(engine_query_nanos_.load() / 1e9);
  writer.Key("walks_sampled");
  writer.Uint(engine_walks_.load());
  writer.EndObject();
  writer.Key("threads");
  writer.Uint(registry_.num_threads());
  if (server_ != nullptr) {
    const HttpServerCounters counters = server_->counters();
    writer.Key("http");
    writer.BeginObject();
    writer.Key("accepted");
    writer.Uint(counters.accepted);
    writer.Key("rejected_503");
    writer.Uint(counters.rejected_503);
    writer.Key("requests");
    writer.Uint(counters.requests);
    writer.Key("queue_depth");
    writer.Uint(server_->queue_depth());
    writer.EndObject();
  }
  writer.Key("memory");
  writer.BeginObject();
  writer.Key("peak_rss_bytes");
  writer.Uint(PeakRssBytes());
  writer.Key("current_rss_bytes");
  writer.Uint(CurrentRssBytes());
  writer.EndObject();
  writer.EndObject();

  HttpResponse response;
  response.body = writer.Take();
  response.body.push_back('\n');
  return response;
}

HttpResponse SimPushService::HandleHealth(const HttpRequest&) {
  // A failed default-graph install must fail the liveness probe: a
  // server whose configured graph never loaded should be restarted (or
  // repaired over /v1/graphs), not kept in a load balancer rotation.
  if (const Status startup = startup_status(); !startup.ok()) {
    JsonWriter writer;
    writer.BeginObject();
    writer.Key("status");
    writer.String("unavailable");
    writer.Key("error");
    writer.String(startup.ToString());
    writer.EndObject();
    HttpResponse response;
    response.status = 503;
    response.body = writer.Take();
    response.body.push_back('\n');
    return response;
  }
  HttpResponse response;
  response.body = "{\"status\":\"ok\"}\n";
  return response;
}

HttpResponse SimPushService::HandleGraphList(const HttpRequest&) {
  admin_requests_.fetch_add(1);
  JsonWriter writer;
  writer.BeginObject();
  writer.Key("graphs");
  writer.BeginArray();
  for (const std::string& name : registry_.Names()) {
    auto stats = registry_.Stats(name);
    if (!stats.ok()) continue;  // Raced with a DELETE.
    writer.BeginObject();
    writer.Key("name");
    writer.String(name);
    writer.Key("generation");
    writer.Uint(stats->generation);
    writer.Key("nodes");
    writer.Uint(stats->num_nodes);
    writer.Key("edges");
    writer.Uint(stats->num_edges);
    writer.Key("pending_updates");
    writer.Uint(stats->pending_updates);
    writer.Key("swap_count");
    writer.Uint(stats->swap_count);
    writer.EndObject();
  }
  writer.EndArray();
  writer.Key("default_graph");
  writer.String(options_.default_graph);
  writer.EndObject();

  HttpResponse response;
  response.body = writer.Take();
  response.body.push_back('\n');
  return response;
}

HttpResponse SimPushService::HandleGraphCreate(const HttpRequest& request) {
  admin_requests_.fetch_add(1);
  auto doc = ParseJson(request.body);
  if (!doc.ok() || !doc->is_object()) {
    bad_requests_.fetch_add(1);
    return JsonError(400, doc.ok() ? "request body must be a JSON object"
                                   : doc.status().message());
  }
  const JsonValue* name_field = doc->Find("name");
  if (name_field == nullptr || !name_field->is_string()) {
    bad_requests_.fetch_add(1);
    return JsonError(400, "missing \"name\" string field");
  }
  const std::string& name = name_field->string_value();
  if (!IsValidGraphName(name)) {
    bad_requests_.fetch_add(1);
    return JsonError(400, "graph name must be 1-64 chars of [A-Za-z0-9._-]");
  }
  // Per-tenant engine options: unspecified fields inherit the process
  // defaults; validation failures 400 before any graph is built.
  SimPushOptions tenant_options = options_.query;
  if (const Status parsed = ReadTenantOptions(
          *doc, options_.min_request_epsilon, &tenant_options);
      !parsed.ok()) {
    bad_requests_.fetch_add(1);
    return JsonError(400, parsed.message());
  }

  const JsonValue* path_field = doc->Find("path");
  const JsonValue* edges_field = doc->Find("edges");
  StatusOr<Graph> graph = Status::InvalidArgument(
      "provide either \"path\" (edge list or .spg) or \"nodes\"+\"edges\"");
  if (path_field != nullptr && path_field->is_string()) {
    if (!options_.allow_path_create) {
      bad_requests_.fetch_add(1);
      return JsonError(403,
                       "path-based graph creation is disabled (start with "
                       "--allow-path-create 1, or send inline edges)");
    }
    EdgeListOptions load_options;
    if (const JsonValue* undirected = doc->Find("undirected")) {
      load_options.undirected =
          undirected->is_bool() && undirected->bool_value();
    }
    graph = LoadGraphAnyFormat(path_field->string_value(), load_options);
  } else if (edges_field != nullptr) {
    auto nodes = RequireIndex(*doc, "nodes");
    if (!nodes.ok() || *nodes >= kInvalidNode) {
      bad_requests_.fetch_add(1);
      return JsonError(400, "inline graphs need a \"nodes\" count");
    }
    if (*nodes > options_.max_inline_nodes) {
      bad_requests_.fetch_add(1);
      return JsonError(413, "inline graph exceeds max_inline_nodes (" +
                                std::to_string(options_.max_inline_nodes) +
                                "); load large graphs via \"path\"");
    }
    std::vector<EdgeUpdate> edges;
    const Status parsed =
        ReadEdgePairs(*edges_field, EdgeUpdate::Kind::kInsert, &edges);
    if (!parsed.ok()) {
      bad_requests_.fetch_add(1);
      return JsonError(400, parsed.message());
    }
    GraphBuilder builder(static_cast<NodeId>(*nodes));
    for (const EdgeUpdate& edge : edges) builder.AddEdge(edge.src, edge.dst);
    graph = std::move(builder).Build(/*dedupe=*/false);
  }
  if (!graph.ok()) {
    bad_requests_.fetch_add(1);
    return JsonError(400, graph.status().ToString());
  }

  const Status added = AddGraph(name, *std::move(graph), tenant_options);
  if (!added.ok()) {
    bad_requests_.fetch_add(1);
    return JsonError(added);
  }
  auto stats = registry_.Stats(name);

  JsonWriter writer;
  writer.BeginObject();
  writer.Key("graph");
  writer.String(name);
  if (stats.ok()) {
    writer.Key("generation");
    writer.Uint(stats->generation);
    writer.Key("nodes");
    writer.Uint(stats->num_nodes);
    writer.Key("edges");
    writer.Uint(stats->num_edges);
  }
  // Echo the effective engine options so a client can confirm what the
  // tenant will actually run with (defaults merged in).
  writer.Key("options");
  WriteEngineOptions(&writer, tenant_options);
  writer.EndObject();

  HttpResponse response;
  response.status = 201;
  response.body = writer.Take();
  response.body.push_back('\n');
  return response;
}

HttpResponse SimPushService::HandleGraphOp(const HttpRequest& request) {
  admin_requests_.fetch_add(1);
  // Target shape: /v1/graphs/{name}[/edges|/swap].
  constexpr std::string_view kPrefix = "/v1/graphs/";
  std::string_view rest(request.target);
  rest.remove_prefix(kPrefix.size());
  const size_t slash = rest.find('/');
  const std::string_view name = rest.substr(0, slash);
  const std::string_view op =
      slash == std::string_view::npos ? std::string_view() : rest.substr(slash + 1);
  if (!IsValidGraphName(name)) {
    bad_requests_.fetch_add(1);
    return JsonError(400, "graph name must be 1-64 chars of [A-Za-z0-9._-]");
  }

  if (op.empty()) {
    if (request.method == "GET") {
      if (auto stats = registry_.Stats(name); !stats.ok()) {
        bad_requests_.fetch_add(1);
        return JsonError(stats.status());
      }
      JsonWriter writer;
      writer.BeginObject();
      writer.Key("graph");
      writer.String(name);
      writer.Key("stats");
      WriteTenantSection(&writer, std::string(name));
      writer.EndObject();
      HttpResponse response;
      response.body = writer.Take();
      response.body.push_back('\n');
      return response;
    }
    if (request.method == "DELETE") {
      const Status removed = RemoveGraph(name);
      if (!removed.ok()) {
        bad_requests_.fetch_add(1);
        return JsonError(removed);
      }
      JsonWriter writer;
      writer.BeginObject();
      writer.Key("graph");
      writer.String(name);
      writer.Key("deleted");
      writer.Bool(true);
      writer.EndObject();
      HttpResponse response;
      response.body = writer.Take();
      response.body.push_back('\n');
      return response;
    }
    bad_requests_.fetch_add(1);
    return JsonError(405, "method not allowed");
  }

  if (op == "swap" || op == "edges") {
    if (request.method != "POST") {
      bad_requests_.fetch_add(1);
      return JsonError(405, "method not allowed");
    }
    StatusOr<UpdateOutcome> outcome =
        Status::InvalidArgument("unreachable");
    if (op == "swap") {
      outcome = registry_.Swap(name);
    } else {
      auto doc = ParseJson(request.body);
      if (!doc.ok() || !doc->is_object()) {
        bad_requests_.fetch_add(1);
        return JsonError(400, doc.ok() ? "request body must be a JSON object"
                                       : doc.status().message());
      }
      std::vector<EdgeUpdate> updates;
      if (const JsonValue* add = doc->Find("add")) {
        const Status parsed =
            ReadEdgePairs(*add, EdgeUpdate::Kind::kInsert, &updates);
        if (!parsed.ok()) {
          bad_requests_.fetch_add(1);
          return JsonError(400, parsed.message());
        }
      }
      if (const JsonValue* remove = doc->Find("remove")) {
        const Status parsed =
            ReadEdgePairs(*remove, EdgeUpdate::Kind::kDelete, &updates);
        if (!parsed.ok()) {
          bad_requests_.fetch_add(1);
          return JsonError(400, parsed.message());
        }
      }
      if (updates.empty()) {
        bad_requests_.fetch_add(1);
        return JsonError(400,
                         "provide \"add\" and/or \"remove\" [src,dst] lists");
      }
      if (updates.size() > options_.max_update_edges) {
        bad_requests_.fetch_add(1);
        return JsonError(413, "update exceeds max_update_edges (" +
                                  std::to_string(options_.max_update_edges) +
                                  ")");
      }
      bool force_swap = false;
      if (const JsonValue* swap = doc->Find("swap")) {
        force_swap = swap->is_bool() && swap->bool_value();
      }
      outcome = registry_.ApplyUpdates(name, updates, force_swap);
    }
    if (!outcome.ok()) {
      bad_requests_.fetch_add(1);
      return JsonError(outcome.status());
    }
    JsonWriter writer;
    writer.BeginObject();
    writer.Key("graph");
    writer.String(name);
    writer.Key("applied");
    writer.Uint(outcome->applied);
    writer.Key("pending");
    writer.Uint(outcome->pending);
    writer.Key("swapped");
    writer.Bool(outcome->swapped);
    writer.Key("generation");
    writer.Uint(outcome->generation);
    writer.EndObject();
    HttpResponse response;
    response.body = writer.Take();
    response.body.push_back('\n');
    return response;
  }

  if (op == "options") {
    if (request.method != "PATCH") {
      bad_requests_.fetch_add(1);
      return JsonError(405, "method not allowed");
    }
    auto doc = ParseJson(request.body);
    if (!doc.ok() || !doc->is_object()) {
      bad_requests_.fetch_add(1);
      return JsonError(400, doc.ok() ? "request body must be a JSON object"
                                     : doc.status().message());
    }
    // REPLACE semantics against the process defaults — the same merge
    // and network bounds as POST /v1/graphs "options", so a field the
    // request omits reverts to the operator default rather than
    // sticking at whatever the tenant ran with before. Predictable
    // beats sticky for a knob any client can set.
    SimPushOptions tenant_options = options_.query;
    if (const Status parsed = ReadTenantOptions(
            *doc, options_.min_request_epsilon, &tenant_options);
        !parsed.ok()) {
      bad_requests_.fetch_add(1);
      return JsonError(400, parsed.message());
    }
    if (doc->Find("options") == nullptr) {
      bad_requests_.fetch_add(1);
      return JsonError(400, "missing \"options\" object");
    }
    auto outcome = registry_.UpdateOptions(name, tenant_options);
    if (!outcome.ok()) {
      bad_requests_.fetch_add(1);
      return JsonError(outcome.status());
    }
    JsonWriter writer;
    writer.BeginObject();
    writer.Key("graph");
    writer.String(name);
    // Echo the effective (merged) options, as the create endpoint does.
    writer.Key("options");
    WriteEngineOptions(&writer, tenant_options);
    writer.Key("swapped");
    writer.Bool(outcome->swapped);
    writer.Key("pending");
    writer.Uint(outcome->pending);
    writer.Key("generation");
    writer.Uint(outcome->generation);
    writer.EndObject();
    HttpResponse response;
    response.body = writer.Take();
    response.body.push_back('\n');
    return response;
  }

  bad_requests_.fetch_add(1);
  return JsonError(404, "unknown graph operation \"" + std::string(op) +
                            "\" (expected edges|swap|options)");
}

void SimPushService::LatencyRing::Record(double seconds) {
  MutexLock lock(&mu);
  ring[next] = seconds;
  next = (next + 1) % ring.size();
  filled = std::min(filled + 1, ring.size());
}

LatencySnapshot SimPushService::LatencyRing::Snapshot() const {
  std::vector<double> sorted;
  {
    MutexLock lock(&mu);
    sorted.assign(ring.begin(), ring.begin() + filled);
  }
  LatencySnapshot snapshot;
  snapshot.samples = sorted.size();
  if (sorted.empty()) return snapshot;
  std::sort(sorted.begin(), sorted.end());
  const auto percentile = [&sorted](double p) {
    const size_t index = static_cast<size_t>(p * (sorted.size() - 1));
    return sorted[index] * 1e3;
  };
  snapshot.p50_ms = percentile(0.50);
  snapshot.p90_ms = percentile(0.90);
  snapshot.p99_ms = percentile(0.99);
  snapshot.max_ms = sorted.back() * 1e3;
  return snapshot;
}

LatencySnapshot SimPushService::Latencies() const {
  return latency_.Snapshot();
}

// ---------------------------------------------------------------------------
// Shutdown signal plumbing (used by tools/simpush_serve.cc).
// ---------------------------------------------------------------------------

namespace {
volatile std::sig_atomic_t g_shutdown_requested = 0;
void OnShutdownSignal(int) { g_shutdown_requested = 1; }
}  // namespace

void InstallShutdownSignalHandlers() {
  struct sigaction action{};
  action.sa_handler = OnShutdownSignal;
  sigemptyset(&action.sa_mask);
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);
}

bool ShutdownRequested() { return g_shutdown_requested != 0; }

void WaitForShutdownSignal() {
  while (!ShutdownRequested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
}

}  // namespace serve
}  // namespace simpush
