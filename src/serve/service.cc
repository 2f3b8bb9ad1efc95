#include "serve/service.h"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdlib>
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

namespace simpush {
namespace serve {

namespace {

// Largest node count an inline POST /v1/graphs create may name: without
// a cap a 60-byte request naming 2^32 nodes would allocate tens of GB
// of CSR offsets. Large graphs load via "path".
constexpr uint64_t kMaxInlineNodes = 1u << 20;

// The {name} operations of the admin API: the route rows whose path
// starts with this are HandleGraphOp's, served under kGraphsPrefix.
constexpr std::string_view kNamedGraph = "/v1/graphs/{name}";
constexpr std::string_view kGraphsPrefix = "/v1/graphs/";

constexpr std::string_view kBadGraphName =
    "graph name must be 1-64 chars of [A-Za-z0-9._-]";

// The one finisher: every response body is a JsonWriter's document plus
// a trailing newline (curl-friendly).
HttpResponse Finish(JsonWriter* writer, int status) {
  HttpResponse response;
  response.status = status;
  response.body = writer->Take();
  response.body.push_back('\n');
  return response;
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
// graph-create and options echoes).
void WriteEngineOptions(JsonWriter* writer, const SimPushOptions& options) {
  writer->BeginObject();
  WriteEngineOptionFields(writer, options);
  writer->EndObject();
}

}  // namespace

// ---------------------------------------------------------------------------
// The route table. Every route is a row: the request line it answers,
// the counter it bumps, and its decode (read the request's fields),
// run (act on them) and encode (write the response members) steps.
// Serve runs every row the same way; ErrorResponse is the one way out
// for a failed step.
// ---------------------------------------------------------------------------

// One request as it moves through the route shell. Each route uses the
// members its steps name; the rest stay empty.
struct SimPushService::Call {
  explicit Call(const HttpRequest& http) : request(http) {}

  const HttpRequest& request;
  Timer wall;          // Started when the shell took the request.
  JsonValue doc;       // The parsed body, for routes that take one.
  std::string graph;   // The tenant addressed.
  std::string_view op;  // The /v1/graphs/{name}/op operation, if any.

  // Query endpoints, decoded before the lease...
  uint64_t node = 0;                     // /v1/query, /v1/topk.
  const JsonValue* node_list = nullptr;  // /v1/batch: the "nodes" array.
  uint64_t k = 0;  // /v1/query: top_k (0 = full score vector); else k.
  bool full_vector = false;  // /v1/query with top_k 0.
  bool with_stats = false;
  // ...resolved against the leased generation...
  GenerationLease generation;
  int64_t deadline_ms = 0;
  std::vector<NodeId> nodes;  // One per requested position.
  // ...and run: a single query's scores (only the stats when ranked
  // from the cache) and, unless full_vector, its ranked top k...
  const SimPushResult* result = nullptr;
  const std::vector<TopKEntry>* top = nullptr;
  double epsilon = 0;  // The ε that produced `result`.
  bool cached = false;
  // ...or a batch: one entry per distinct node, fanned back to the
  // requested positions through slot.
  std::vector<BatchTopKResult> batch;
  std::vector<size_t> slot;
  double wall_ms = 0;

  // Admin endpoints.
  SimPushOptions options;  // Create and PATCH options: merged options.
  const JsonValue* path = nullptr;  // Create: a server-local graph file,
  bool undirected = false;
  bool inline_graph = false;        // ...or inline "nodes" + "edges".
  uint64_t num_nodes = 0;
  std::vector<EdgeUpdate> edges;    // Create's inline edges; /edges.
  bool force_swap = false;
  std::optional<TenantStats> stats;  // Create: the new tenant.
  UpdateOutcome outcome;             // /edges, /swap, PATCH options.
};

// One row of the route table: the request line it answers, the counter
// it bumps, and its steps. A null step is skipped.
struct SimPushService::Route {
  const char* method;
  const char* path;
  Counter counter;
  // Decode reads a JSON object body; rows without one take no body.
  Status (*decode)(const ServiceOptions& options, Call* call);
  Status (*run)(SimPushService& service, Call* call);
  void (*encode)(SimPushService& service, const Call& call,
                 JsonWriter* writer);
  int ok_status = 200;

  static const Route kTable[];
  // HandleGraphOp's rows for a {name} target no table row serves: an
  // operation the table lacks (404) or lacks for this method (405).
  static const Route kUnknownOp;
  static const Route kWrongMethod;

  static const Route& Find(std::string_view method, std::string_view path);
  bool OnNamedGraph() const {
    return std::string_view(path).starts_with(kNamedGraph);
  }

  // Every step before encode, in order; the first failure ends the
  // request.
  Status Apply(SimPushService& service, Call* call) const {
    if (OnNamedGraph() && !IsValidGraphName(call->graph)) {
      return Status::InvalidArgument(std::string(kBadGraphName));
    }
    if (decode != nullptr) {
      SIMPUSH_ASSIGN_OR_RETURN(call->doc, ParseJson(call->request.body));
      if (!call->doc.is_object()) {
        return Status::InvalidArgument("request body must be a JSON object");
      }
      SIMPUSH_RETURN_NOT_OK(decode(service.options_, call));
    }
    return run == nullptr ? Status::OK() : run(service, call);
  }

  // -------------------------------------------------------------------------
  // The query endpoints: /v1/query, /v1/topk and /v1/batch differ only in
  // decode and encode. Their run is one chain: lease → bind nodes →
  // deadline → cancel token → score → the leased tenant's counters.
  // -------------------------------------------------------------------------

  static Status DecodeQuery(const ServiceOptions&, Call* call) {
    SIMPUSH_ASSIGN_OR_RETURN(call->node, RequireIndex(call->doc, "node"));
    SIMPUSH_ASSIGN_OR_RETURN(call->k, OptionalIndex(call->doc, "top_k", 0));
    call->full_vector = call->k == 0;
    SIMPUSH_ASSIGN_OR_RETURN(call->with_stats,
                             OptionalBool(call->doc, "with_stats", false));
    return Status::OK();
  }

  static Status DecodeTopK(const ServiceOptions&, Call* call) {
    SIMPUSH_ASSIGN_OR_RETURN(call->node, RequireIndex(call->doc, "node"));
    SIMPUSH_ASSIGN_OR_RETURN(call->k, OptionalIndex(call->doc, "k", 10));
    return Status::OK();
  }

  static Status DecodeBatch(const ServiceOptions& options, Call* call) {
    call->node_list = call->doc.Find("nodes");
    if (call->node_list == nullptr || !call->node_list->is_array()) {
      return Status::InvalidArgument("missing \"nodes\" array");
    }
    if (call->node_list->array_items().size() > options.max_batch_nodes) {
      return Status::ResourceExhausted(
          "batch exceeds max_batch_nodes (" +
          std::to_string(options.max_batch_nodes) + ")");
    }
    SIMPUSH_ASSIGN_OR_RETURN(call->k, OptionalIndex(call->doc, "k", 10));
    return Status::OK();
  }

  // Range-checks the requested ids against the leased graph before
  // narrowing them to NodeId — a 64-bit id must not wrap into a valid
  // node and silently answer for the wrong vertex.
  static Status BindNodes(const Graph& graph, Call* call) {
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

  static Status RunQuery(SimPushService& service, Call* call) {
    // The tenant: the "graph" field, or the default.
    call->graph = service.options_.default_graph;
    if (const JsonValue* field = call->doc.Find("graph")) {
      if (!field->is_string()) {
        return Status::InvalidArgument("\"graph\" must be a string");
      }
      call->graph = field->string_value();
    }
    SIMPUSH_ASSIGN_OR_RETURN(call->generation,
                             service.registry_.Lease(call->graph));
    SIMPUSH_RETURN_NOT_OK(BindNodes(call->generation->graph(), call));
    SIMPUSH_ASSIGN_OR_RETURN(
        call->deadline_ms,
        ReadDeadlineMs(call->doc, service.options_.request_timeout_ms,
                       service.options_.max_deadline_ms));

    // The token probes the connection, so a client that hangs up
    // mid-query cancels it (499).
    const CancelToken token(Deadline::After(call->deadline_ms),
                            call->request.client_fd);
    SIMPUSH_RETURN_NOT_OK(call->node_list == nullptr
                              ? ScoreOne(service, call, &token)
                              : ScoreBatch(service, call, &token));
    service.nodes_scored_.fetch_add(call->nodes.size());
    TenantCounters& counters = call->generation->counters();
    counters.requests.fetch_add(1);
    counters.nodes_scored.fetch_add(call->nodes.size());
    return Status::OK();
  }

  // One query through ServeOne, with the optional bounded "epsilon"
  // override.
  static Status ScoreOne(SimPushService& service, Call* call,
                         const CancelToken* cancel) {
    const GraphGeneration& generation = *call->generation;
    std::optional<double> epsilon;
    SIMPUSH_RETURN_NOT_OK(ReadEpsilonOverride(
        call->doc, service.options_.min_request_epsilon, &epsilon));
    call->epsilon = epsilon.value_or(generation.core().options().epsilon);
    // Reused per HTTP worker thread: after warm-up the pooled path
    // performs zero heap allocations. An ε override leases the same
    // pooled workspaces, which grow once to its high-water size.
    static thread_local SimPushResult result;
    static thread_local std::vector<TopKEntry> top;
    std::vector<TopKEntry>* const ranked = call->full_vector ? nullptr : &top;
    call->result = &result;
    call->top = ranked;
    return service.ServeOne(generation, call->nodes[0], epsilon, &result,
                            ranked, call->k, cancel, &call->cached);
  }

  // The deduplicated /v1/batch fan-out through ParallelQueryBatchTopK.
  static Status ScoreBatch(SimPushService& service, Call* call,
                           const CancelToken* cancel) {
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

    // Fan out across the registry's shared thread pool, one workspace
    // from its shared workspace pool per chunk, results in input order. The
    // lease pins the generation for the whole fan-out, so every chunk
    // scores the same graph even if a swap lands mid-batch. A fired
    // token stops chunks between queries and inside each query's push
    // loops.
    const GraphGeneration& generation = *call->generation;
    ParallelBatchStats stats;
    auto results = ParallelQueryBatchTopK(
        generation.core(), service.registry_.thread_pool(),
        generation.workspaces(), unique_nodes, call->k, &stats, cancel);
    if (!results.ok()) {
      // A fired token keeps its 504/499 mapping; any other failure
      // answers 400 with the full status text.
      const StatusCode code = results.status().code();
      if (code == StatusCode::kCancelled ||
          code == StatusCode::kDeadlineExceeded) {
        return results.status();
      }
      return Status::InvalidArgument(results.status().ToString());
    }
    service.engine_query_nanos_.fetch_add(
        static_cast<uint64_t>(stats.cpu_query_seconds * 1e9));
    service.engine_walks_.fetch_add(stats.walks_sampled);
    call->wall_ms = stats.wall_seconds * 1e3;
    call->batch = *std::move(results);
    return Status::OK();
  }

  // The members /v1/query and /v1/topk responses open with.
  static void EncodeSingleHead(const Call& call, JsonWriter* writer) {
    writer->Key("node");
    writer->Uint(call.node);
    writer->Key("graph");
    writer->String(call.graph);
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

  static void EncodeQuery(SimPushService&, const Call& call,
                          JsonWriter* writer) {
    EncodeSingleHead(call, writer);
    if (call.full_vector) {
      writer->Key("scores");
      writer->BeginArray();
      for (const double score : call.result->scores) writer->Double(score);
      writer->EndArray();
    } else {
      writer->Key("top");
      WriteTopEntries(writer, *call.top);
    }
    if (call.with_stats) {
      writer->Key("stats");
      WriteQueryStats(writer, call.result->stats);
    }
  }

  static void EncodeTopK(SimPushService&, const Call& call,
                         JsonWriter* writer) {
    EncodeSingleHead(call, writer);
    writer->Key("k");
    writer->Uint(call.k);
    writer->Key("top");
    WriteTopEntries(writer, *call.top);
  }

  static void EncodeBatch(SimPushService&, const Call& call,
                          JsonWriter* writer) {
    writer->Key("graph");
    writer->String(call.graph);
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

  // -------------------------------------------------------------------------
  // Probes: /v1/stats and /healthz.
  // -------------------------------------------------------------------------

  static void EncodeStats(SimPushService& service, const Call&,
                          JsonWriter* writer) {
    service.WriteStats(writer);
  }

  static void EncodeHealth(SimPushService&, const Call&, JsonWriter* writer) {
    writer->Key("status");
    writer->String("ok");
  }

  // -------------------------------------------------------------------------
  // The admin endpoints: /v1/graphs and the {name} operations.
  // -------------------------------------------------------------------------

  static void EncodeGraphList(SimPushService& service, const Call&,
                              JsonWriter* writer) {
    writer->Key("graphs");
    writer->BeginArray();
    for (const std::string& name : service.registry_.Names()) {
      auto stats = service.registry_.Stats(name);
      if (!stats.ok()) continue;  // Raced with a DELETE.
      writer->BeginObject();
      writer->Key("name");
      writer->String(name);
      writer->Key("generation");
      writer->Uint(stats->generation);
      writer->Key("nodes");
      writer->Uint(stats->num_nodes);
      writer->Key("edges");
      writer->Uint(stats->num_edges);
      writer->Key("pending_updates");
      writer->Uint(stats->pending_updates);
      writer->Key("swap_count");
      writer->Uint(stats->swap_count);
      writer->EndObject();
    }
    writer->EndArray();
    writer->Key("default_graph");
    writer->String(service.options_.default_graph);
  }

  static Status DecodeCreate(const ServiceOptions& options, Call* call) {
    const JsonValue& doc = call->doc;
    const JsonValue* name = doc.Find("name");
    if (name == nullptr || !name->is_string()) {
      return Status::InvalidArgument("missing \"name\" string field");
    }
    call->graph = name->string_value();
    if (!IsValidGraphName(call->graph)) {
      return Status::InvalidArgument(std::string(kBadGraphName));
    }
    // Per-tenant engine options: unspecified fields inherit the process
    // defaults; validation failures 400 before any graph is built.
    call->options = options.query;
    SIMPUSH_RETURN_NOT_OK(ReadTenantOptions(doc, options.min_request_epsilon,
                                            &call->options));
    const JsonValue* path = doc.Find("path");
    const JsonValue* edges = doc.Find("edges");
    if (path != nullptr && path->is_string()) {
      SIMPUSH_ASSIGN_OR_RETURN(call->undirected,
                               OptionalBool(doc, "undirected", false));
      if (!options.allow_path_create) {
        return Status::PermissionDenied(
            "path-based graph creation is disabled (start with "
            "--allow-path-create 1, or send inline edges)");
      }
      call->path = path;
      return Status::OK();
    }
    if (edges == nullptr) return Status::OK();  // Run names the shapes.
    auto nodes = RequireIndex(doc, "nodes");
    if (!nodes.ok() || *nodes >= kInvalidNode) {
      return Status::InvalidArgument("inline graphs need a \"nodes\" count");
    }
    if (*nodes > kMaxInlineNodes) {
      return Status::ResourceExhausted(
          "inline graph exceeds max_inline_nodes (" +
          std::to_string(kMaxInlineNodes) +
          "); load large graphs via \"path\"");
    }
    call->inline_graph = true;
    call->num_nodes = *nodes;
    return ReadEdgePairs(*edges, EdgeUpdate::Kind::kInsert, &call->edges);
  }

  static Status RunCreate(SimPushService& service, Call* call) {
    StatusOr<Graph> graph = Status::InvalidArgument(
        "provide either \"path\" (edge list or .spg) or \"nodes\"+\"edges\"");
    if (call->path != nullptr) {
      EdgeListOptions load_options;
      load_options.undirected = call->undirected;
      graph = LoadGraphAnyFormat(call->path->string_value(), load_options);
    } else if (call->inline_graph) {
      GraphBuilder builder(static_cast<NodeId>(call->num_nodes));
      for (const EdgeUpdate& edge : call->edges) {
        builder.AddEdge(edge.src, edge.dst);
      }
      graph = std::move(builder).Build(/*dedupe=*/false);
    }
    if (!graph.ok()) return Status::InvalidArgument(graph.status().ToString());
    SIMPUSH_RETURN_NOT_OK(
        service.registry_.Add(call->graph, *std::move(graph), call->options));
    if (auto stats = service.registry_.Stats(call->graph); stats.ok()) {
      call->stats = *std::move(stats);
    }
    return Status::OK();
  }

  static void EncodeCreate(SimPushService&, const Call& call,
                           JsonWriter* writer) {
    writer->Key("graph");
    writer->String(call.graph);
    if (call.stats.has_value()) {
      writer->Key("generation");
      writer->Uint(call.stats->generation);
      writer->Key("nodes");
      writer->Uint(call.stats->num_nodes);
      writer->Key("edges");
      writer->Uint(call.stats->num_edges);
    }
    // Echo the effective engine options so a client can confirm what the
    // tenant will actually run with (defaults merged in).
    writer->Key("options");
    WriteEngineOptions(writer, call.options);
  }

  static Status RunGraphGet(SimPushService& service, Call* call) {
    return service.registry_.Stats(call->graph).status();
  }

  static void EncodeGraphGet(SimPushService& service, const Call& call,
                             JsonWriter* writer) {
    writer->Key("graph");
    writer->String(call.graph);
    writer->Key("stats");
    service.WriteTenantSection(writer, call.graph);
  }

  static Status RunDelete(SimPushService& service, Call* call) {
    return service.registry_.Remove(call->graph);
  }

  static void EncodeDeleted(SimPushService&, const Call& call,
                            JsonWriter* writer) {
    writer->Key("graph");
    writer->String(call.graph);
    writer->Key("deleted");
    writer->Bool(true);
  }

  static Status DecodeEdges(const ServiceOptions& options, Call* call) {
    if (const JsonValue* add = call->doc.Find("add")) {
      SIMPUSH_RETURN_NOT_OK(
          ReadEdgePairs(*add, EdgeUpdate::Kind::kInsert, &call->edges));
    }
    if (const JsonValue* remove = call->doc.Find("remove")) {
      SIMPUSH_RETURN_NOT_OK(
          ReadEdgePairs(*remove, EdgeUpdate::Kind::kDelete, &call->edges));
    }
    if (call->edges.empty()) {
      return Status::InvalidArgument(
          "provide \"add\" and/or \"remove\" [src,dst] lists");
    }
    if (call->edges.size() > options.max_update_edges) {
      return Status::ResourceExhausted(
          "update exceeds max_update_edges (" +
          std::to_string(options.max_update_edges) + ")");
    }
    SIMPUSH_ASSIGN_OR_RETURN(call->force_swap,
                             OptionalBool(call->doc, "swap", false));
    return Status::OK();
  }

  static Status RunEdges(SimPushService& service, Call* call) {
    SIMPUSH_ASSIGN_OR_RETURN(
        call->outcome,
        service.registry_.ApplyUpdates(call->graph, call->edges,
                                       call->force_swap));
    return Status::OK();
  }

  static Status RunSwap(SimPushService& service, Call* call) {
    SIMPUSH_ASSIGN_OR_RETURN(call->outcome,
                             service.registry_.Swap(call->graph));
    return Status::OK();
  }

  static void EncodeOutcome(SimPushService&, const Call& call,
                            JsonWriter* writer) {
    writer->Key("graph");
    writer->String(call.graph);
    writer->Key("applied");
    writer->Uint(call.outcome.applied);
    writer->Key("pending");
    writer->Uint(call.outcome.pending);
    writer->Key("swapped");
    writer->Bool(call.outcome.swapped);
    writer->Key("generation");
    writer->Uint(call.outcome.generation);
  }

  // REPLACE semantics against the process defaults — the same merge and
  // network bounds as POST /v1/graphs "options", so a field the request
  // omits reverts to the operator default rather than sticking at
  // whatever the tenant ran with before. Predictable beats sticky for a
  // knob any client can set.
  static Status DecodeOptions(const ServiceOptions& options, Call* call) {
    call->options = options.query;
    SIMPUSH_RETURN_NOT_OK(ReadTenantOptions(
        call->doc, options.min_request_epsilon, &call->options));
    if (call->doc.Find("options") == nullptr) {
      return Status::InvalidArgument("missing \"options\" object");
    }
    return Status::OK();
  }

  static Status RunOptions(SimPushService& service, Call* call) {
    SIMPUSH_ASSIGN_OR_RETURN(
        call->outcome,
        service.registry_.UpdateOptions(call->graph, call->options));
    return Status::OK();
  }

  static void EncodeOptions(SimPushService&, const Call& call,
                            JsonWriter* writer) {
    writer->Key("graph");
    writer->String(call.graph);
    // Echo the effective (merged) options, as the create endpoint does.
    writer->Key("options");
    WriteEngineOptions(writer, call.options);
    writer->Key("swapped");
    writer->Bool(call.outcome.swapped);
    writer->Key("pending");
    writer->Uint(call.outcome.pending);
    writer->Key("generation");
    writer->Uint(call.outcome.generation);
  }

  static Status RejectUnknownOp(SimPushService&, Call* call) {
    return Status::NotFound("unknown graph operation \"" +
                            std::string(call->op) +
                            "\" (expected edges|swap|options)");
  }

  static Status RejectWrongMethod(SimPushService&, Call*) {
    return Status::Unimplemented("method not allowed");
  }
};

// clang-format off
const SimPushService::Route SimPushService::Route::kTable[] = {
  // method  path                        counter     decode         run          encode
  {"POST",   "/v1/query",                kQuery,     DecodeQuery,   RunQuery,    EncodeQuery},
  {"POST",   "/v1/topk",                 kTopK,      DecodeTopK,    RunQuery,    EncodeTopK},
  {"POST",   "/v1/batch",                kBatch,     DecodeBatch,   RunQuery,    EncodeBatch},
  {"GET",    "/v1/stats",                kUncounted, nullptr,       nullptr,     EncodeStats},
  {"GET",    "/healthz",                 kUncounted, nullptr,       nullptr,     EncodeHealth},
  {"GET",    "/v1/graphs",               kAdmin,     nullptr,       nullptr,     EncodeGraphList},
  {"POST",   "/v1/graphs",               kAdmin,     DecodeCreate,  RunCreate,   EncodeCreate, 201},
  {"GET",    "/v1/graphs/{name}",        kAdmin,     nullptr,       RunGraphGet, EncodeGraphGet},
  {"DELETE", "/v1/graphs/{name}",        kAdmin,     nullptr,       RunDelete,   EncodeDeleted},
  {"POST",   "/v1/graphs/{name}/edges",  kAdmin,     DecodeEdges,   RunEdges,    EncodeOutcome},
  {"POST",   "/v1/graphs/{name}/swap",   kAdmin,     nullptr,       RunSwap,     EncodeOutcome},
  {"PATCH",  "/v1/graphs/{name}/options", kAdmin,    DecodeOptions, RunOptions,  EncodeOptions},
};
const SimPushService::Route SimPushService::Route::kUnknownOp =
  {"",       "/v1/graphs/{name}/*",      kAdmin,     nullptr,       RejectUnknownOp,   nullptr};
const SimPushService::Route SimPushService::Route::kWrongMethod =
  {"",       "/v1/graphs/{name}/*",      kAdmin,     nullptr,       RejectWrongMethod, nullptr};
// clang-format on

const SimPushService::Route& SimPushService::Route::Find(
    std::string_view method, std::string_view path) {
  for (const Route& route : kTable) {
    if (route.method == method && route.path == path) return route;
  }
  std::abort();  // Every caller names a row of kTable.
}

HttpResponse SimPushService::Serve(const Route& route,
                                   const HttpRequest& request,
                                   std::string_view graph,
                                   std::string_view op) {
  Call call(request);
  call.graph = graph;
  call.op = op;
  if (route.counter == kAdmin) requests_[kAdmin].fetch_add(1);
  if (const Status status = route.Apply(*this, &call); !status.ok()) {
    return ErrorResponse(status, call);
  }
  if (route.counter < kAdmin) requests_[route.counter].fetch_add(1);
  JsonWriter writer;
  writer.BeginObject();
  route.encode(*this, call, &writer);
  writer.EndObject();
  HttpResponse response = Finish(&writer, route.ok_status);
  if (route.counter < kAdmin) {
    // A served query always holds the generation it ran on.
    const double seconds = call.wall.ElapsedSeconds();
    latency_.Record(seconds);
    call.generation->counters().latency.Record(seconds);
  }
  return response;
}

HttpResponse SimPushService::ErrorResponse(const Status& status,
                                           const Call& call) {
  // The service's whole HTTP error vocabulary. A code the table lacks
  // (I/O, internal) answers 400. The 499/504 rows carry a fixed reason
  // and the partial timing of the query they stopped.
  struct HttpError {
    StatusCode code;
    int http;
    const char* reason;
  };
  static constexpr HttpError kHttpErrors[] = {
      {StatusCode::kInvalidArgument, 400, nullptr},
      {StatusCode::kPermissionDenied, 403, nullptr},    // Path creates off.
      {StatusCode::kNotFound, 404, nullptr},            // Graph, operation.
      {StatusCode::kUnimplemented, 405, nullptr},       // Wrong method.
      {StatusCode::kFailedPrecondition, 409, nullptr},  // Name taken.
      {StatusCode::kOutOfRange, 409, nullptr},          // Graph limit.
      {StatusCode::kResourceExhausted, 413, nullptr},   // A size cap.
      {StatusCode::kCancelled, 499, "client closed request"},
      {StatusCode::kDeadlineExceeded, 504, "deadline exceeded"},
  };
  HttpError error = {status.code(), 400, nullptr};
  for (const HttpError& row : kHttpErrors) {
    if (row.code == status.code()) error = row;
  }

  JsonWriter writer;
  writer.BeginObject();
  switch (status.code()) {
    // kCancelled beats kDeadlineExceeded in CancelToken::Check, so a
    // request that was BOTH late and abandoned counts as abandoned — the
    // 499 is best-effort (nobody is reading it), but the counter is the
    // operator's signal that clients are hanging up, not timing out.
    case StatusCode::kCancelled:
      client_abandoned_.fetch_add(1);
      if (call.generation != nullptr) {
        call.generation->counters().client_abandoned.fetch_add(1);
      }
      break;
    case StatusCode::kDeadlineExceeded:
      deadline_expired_.fetch_add(1);
      if (call.generation != nullptr) {
        call.generation->counters().deadline_expired.fetch_add(1);
      }
      break;
    default:
      bad_requests_.fetch_add(1);
  }
  writer.Key("error");
  writer.String(error.reason != nullptr ? error.reason : status.message());
  if (error.reason != nullptr) {
    // How far past the budget the query got, and which generation it
    // ran against.
    writer.Key("elapsed_ms");
    writer.Double(call.wall.ElapsedSeconds() * 1e3);
    writer.Key("deadline_ms");
    writer.Uint(call.deadline_ms > 0 ? static_cast<uint64_t>(call.deadline_ms)
                                     : 0);
    writer.Key("graph");
    writer.String(call.graph);
    writer.Key("generation");
    writer.Uint(call.generation != nullptr ? call.generation->id() : 0);
  }
  writer.EndObject();
  return Finish(&writer, error.http);
}

SimPushService::SimPushService(const ServiceOptions& options)
    : options_(options), registry_(options) {}

void SimPushService::RegisterRoutes(HttpServer* server) {
  server_ = server;
  std::vector<std::string_view> prefix_methods;
  for (const Route& route : Route::kTable) {
    if (!route.OnNamedGraph()) {
      server->Route(route.method, route.path,
                    [this, &route](const HttpRequest& r) {
                      return Serve(route, r);
                    });
    } else if (std::find(prefix_methods.begin(), prefix_methods.end(),
                         route.method) == prefix_methods.end()) {
      // One prefix route per method the {name} operations use;
      // HandleGraphOp picks the row.
      prefix_methods.push_back(route.method);
      server->RoutePrefix(route.method, std::string(kGraphsPrefix),
                          [this](const HttpRequest& r) {
                            return HandleGraphOp(r);
                          });
    }
  }
}

Status SimPushService::RunQuery(std::string_view graph_name, NodeId u,
                                SimPushResult* result) {
  SIMPUSH_ASSIGN_OR_RETURN(const GenerationLease lease,
                           registry_.Lease(graph_name));
  bool cached = false;
  return ServeOne(*lease, u, std::nullopt, result, /*top=*/nullptr, 0,
                  /*cancel=*/nullptr, &cached);
}

Status SimPushService::ServeOne(const GraphGeneration& generation, NodeId u,
                                std::optional<double> epsilon,
                                SimPushResult* result,
                                std::vector<TopKEntry>* top, size_t k,
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
  // A ranked read copies the entry's top k; only a full-vector read
  // rebuilds all n scores.
  *cached = cache != nullptr &&
            (top == nullptr ? cache->Get(u, fingerprint, result)
                            : cache->GetTopK(u, fingerprint, k, top,
                                             &result->stats));
  if (*cached) return Status::OK();

  // An override only changes which core runs: a throwaway core for the
  // request's ε over the leased generation's graph (derived parameters
  // are cheap to recompute).
  // Either core leases one pooled workspace; construction blocks while
  // all `pool_capacity` workspaces are in flight, which is the
  // backpressure that bounds query-scratch memory under load (a fired
  // `cancel` unblocks the wait). The caller's generation lease is what
  // a hot swap can never invalidate.
  std::optional<EngineCore> override_core;
  if (epsilon.has_value()) override_core.emplace(generation.graph(), merged);
  const EngineCore& core =
      override_core.has_value() ? *override_core : generation.core();
  QueryRunner runner(core, generation.workspaces(), cancel);
  SIMPUSH_RETURN_NOT_OK(runner.QueryInto(u, result));
  engine_query_nanos_.fetch_add(
      static_cast<uint64_t>(result->stats.total_seconds * 1e9));
  engine_walks_.fetch_add(result->stats.walks_sampled);
  // Best-effort: a rejected insert (budget, admission duel, injected
  // failure) just means this computed answer is served uncached. A
  // top-k read the ranked prefix can hold ranks once, one past the
  // prefix so the entry knows whether it holds every positive score,
  // and caches that ranking alone; its first k answer the read.
  if (top != nullptr && k <= ResultCache::kRankedPrefix) {
    SelectTopK(result->scores, ResultCache::kRankedPrefix + 1, u, top);
    if (cache != nullptr) {
      cache->InsertRanked(u, fingerprint, *top, result->stats);
    }
    if (top->size() > k) top->resize(k);
    return Status::OK();
  }
  if (cache != nullptr) cache->Insert(u, fingerprint, *result);
  if (top != nullptr) SelectTopK(result->scores, k, u, top);
  return Status::OK();
}

HttpResponse SimPushService::HandleQuery(const HttpRequest& request) {
  return Serve(Route::Find("POST", "/v1/query"), request);
}

HttpResponse SimPushService::HandleBatch(const HttpRequest& request) {
  return Serve(Route::Find("POST", "/v1/batch"), request);
}

HttpResponse SimPushService::HandleGraphOp(const HttpRequest& request) {
  // Target shape: /v1/graphs/{name}[/op]. The row is the one whose path
  // is the target with {name} for the name and whose method matches; a
  // path with rows for other methods only answers 405, a path with no
  // row 404.
  std::string_view rest(request.target);
  rest.remove_prefix(kGraphsPrefix.size());
  const size_t slash = rest.find('/');
  const std::string_view name = rest.substr(0, slash);
  const std::string_view op = slash == std::string_view::npos
                                  ? std::string_view()
                                  : rest.substr(slash + 1);
  std::string path(kNamedGraph);
  if (!op.empty()) path.append("/").append(op);
  const Route* route = &Route::kUnknownOp;
  for (const Route& row : Route::kTable) {
    if (row.path != path) continue;
    if (row.method == request.method) {
      route = &row;
      break;
    }
    route = &Route::kWrongMethod;
  }
  return Serve(*route, request, name, op);
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
    writer->Key("requests");
    writer->Uint(stats->requests);
    writer->Key("nodes_scored");
    writer->Uint(stats->nodes_scored);
    writer->Key("deadline_expired");
    writer->Uint(stats->deadline_expired);
    writer->Key("client_abandoned");
    writer->Uint(stats->client_abandoned);
    writer->Key("latency_ms");
    WriteLatency(writer, stats->latency);
  }
  writer->EndObject();
}

void SimPushService::WriteStats(JsonWriter* writer) {
  const uint64_t query = requests_[kQuery].load();
  const uint64_t topk = requests_[kTopK].load();
  const uint64_t batch = requests_[kBatch].load();
  const double uptime = uptime_.ElapsedSeconds();
  const LatencySnapshot latency = latency_.Snapshot();

  writer->Key("uptime_seconds");
  writer->Double(uptime);
  // Process-wide DEFAULTS for tenants created without "options" — each
  // tenant's effective knobs live in its own section under "graphs".
  writer->Key("options");
  writer->BeginObject();
  WriteEngineOptionFields(writer, options_.query);
  writer->Key("min_request_epsilon");
  writer->Double(options_.min_request_epsilon);
  writer->Key("swap_threshold");
  writer->Uint(options_.swap_threshold);
  writer->Key("default_graph");
  writer->String(options_.default_graph);
  writer->EndObject();
  writer->Key("requests");
  writer->BeginObject();
  writer->Key("query");
  writer->Uint(query);
  writer->Key("topk");
  writer->Uint(topk);
  writer->Key("batch");
  writer->Uint(batch);
  writer->Key("admin");
  writer->Uint(requests_[kAdmin].load());
  writer->Key("bad");
  writer->Uint(bad_requests_.load());
  writer->Key("deadline_expired");
  writer->Uint(deadline_expired_.load());
  writer->Key("client_abandoned");
  writer->Uint(client_abandoned_.load());
  writer->Key("nodes_scored");
  writer->Uint(nodes_scored_.load());
  writer->EndObject();
  writer->Key("qps");
  writer->Double(uptime > 0 ? (query + topk + batch) / uptime : 0);
  writer->Key("latency_ms");
  WriteLatency(writer, latency);
  // Per-tenant sections: generation id, pending updates, swap counts,
  // per-tenant latency rings.
  writer->Key("graphs");
  writer->BeginObject();
  for (const std::string& name : registry_.Names()) {
    writer->Key(name);
    WriteTenantSection(writer, name);
  }
  writer->EndObject();
  writer->Key("live_generations");
  writer->Uint(static_cast<uint64_t>(
      std::max<int64_t>(0, registry_.live_generations())));
  writer->Key("engine");
  writer->BeginObject();
  writer->Key("cpu_query_seconds");
  writer->Double(engine_query_nanos_.load() / 1e9);
  writer->Key("walks_sampled");
  writer->Uint(engine_walks_.load());
  writer->EndObject();
  writer->Key("threads");
  writer->Uint(registry_.num_threads());
  writer->Key("pool");  // The one workspace pool of every tenant.
  writer->BeginObject();
  writer->Key("capacity");
  writer->Uint(registry_.workspaces().capacity());
  writer->Key("created");
  writer->Uint(registry_.workspaces().created());
  writer->Key("outstanding");
  writer->Uint(registry_.workspaces().outstanding());
  writer->EndObject();
  if (server_ != nullptr) {
    const HttpServerCounters counters = server_->counters();
    writer->Key("http");
    writer->BeginObject();
    writer->Key("accepted");
    writer->Uint(counters.accepted);
    writer->Key("rejected_503");
    writer->Uint(counters.rejected_503);
    writer->Key("requests");
    writer->Uint(counters.requests);
    writer->Key("queue_depth");
    writer->Uint(server_->queue_depth());
    writer->EndObject();
  }
  writer->Key("memory");
  writer->BeginObject();
  writer->Key("peak_rss_bytes");
  writer->Uint(PeakRssBytes());
  writer->Key("current_rss_bytes");
  writer->Uint(CurrentRssBytes());
  writer->EndObject();
}


// ---------------------------------------------------------------------------
// Shutdown signal plumbing (used by tools/simpush_serve.cc).
// ---------------------------------------------------------------------------

namespace {
volatile std::sig_atomic_t g_shutdown_requested = 0;
void OnShutdownSignal(int) { g_shutdown_requested = 1; }
bool ShutdownRequested() { return g_shutdown_requested != 0; }
}  // namespace

void InstallShutdownSignalHandlers() {
  struct sigaction action{};
  action.sa_handler = OnShutdownSignal;
  sigemptyset(&action.sa_mask);
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);
}

void WaitForShutdownSignal() {
  while (!ShutdownRequested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
}

}  // namespace serve
}  // namespace simpush
