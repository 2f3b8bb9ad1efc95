#include "layers.h"

#include <cmath>
#include <fstream>
#include <unordered_map>

#include "checks.h"
#include "common/rng.h"
#include "inputs.h"
#include "serve/http_client.h"
#include "serve/result_cache.h"
#include "simpush/parallel.h"

namespace simpush {
namespace bench_e2e {

namespace {

constexpr uint64_t kProbeStream = 5 << 20;
constexpr int kProbePublishes = 4;
constexpr int kLeaseProbes = 100000;
constexpr size_t kCacheProbeEntries = 16;
constexpr int kCacheProbeGets = 4;
constexpr int kBatchProbeReps = 5;

// Means of the read route's span tree. Self time is a span's duration
// minus the part of it its children cover.
struct SpanSummary {
  size_t requests = 0;        // Traced reads with a service.handle span.
  size_t orphans = 0;         // Traced reads without one.
  size_t misses = 0;          // Of them, answered by the engine.
  double client_ms = 0;       // client.request.
  double handle_ms = 0;       // service.handle.
  double http_self_ms = 0;
  double service_self_ms = 0;
  double engine_ms = 0;       // engine.query, 0 for requests without one.
  double engine_miss_ms = 0;  // engine.query over misses only.
  double addup_error_pct = 0;
};

std::string SpanJson(uint64_t trace_id, SpanKind kind, Route route,
                     int64_t start_ns, int64_t end_ns, int64_t origin_ns) {
  serve::JsonWriter writer;
  writer.BeginObject();
  writer.Key("trace_id");
  writer.Uint(trace_id);
  writer.Key("name");
  writer.String(SpanName(kind));
  writer.Key("parent");
  if (kind == SpanKind::kClientRequest) {
    writer.Null();
  } else {
    writer.String(SpanName(static_cast<SpanKind>(static_cast<int>(kind) - 1)));
  }
  writer.Key("route");
  writer.String(RouteName(route));
  writer.Key("start_us");
  writer.Double(static_cast<double>(start_ns - origin_ns) * 1e-3);
  writer.Key("end_us");
  writer.Double(static_cast<double>(end_ns - origin_ns) * 1e-3);
  writer.EndObject();
  return writer.Take();
}

// Joins the client-side traced requests with the wrappers'
// service.handle spans, writes the three-level tree as a JSON array and
// summarizes the read route.
SpanSummary SummarizeSpans(const LoadGenerator& load, Route read_route,
                           const std::vector<Span>& handles,
                           int64_t origin_ns, const std::string& path) {
  std::unordered_map<uint64_t, const Span*> by_id;
  for (const Span& span : handles) by_id[span.trace_id] = &span;
  std::ofstream out(path);
  out << "[";
  bool first = true;
  auto emit = [&](const std::string& json) {
    out << (first ? "\n" : ",\n") << json;
    first = false;
  };

  SpanSummary summary;
  std::vector<double> client, handle, http_self, service_self, engine,
      engine_miss;
  auto visit = [&](const TracedRequest& request, Route route, bool read) {
    emit(SpanJson(request.trace_id, SpanKind::kClientRequest, route,
                  request.start_ns, request.end_ns, origin_ns));
    const auto it = by_id.find(request.trace_id);
    if (it == by_id.end()) {
      if (read) ++summary.orphans;
      return;
    }
    const Span& h = *it->second;
    emit(SpanJson(request.trace_id, SpanKind::kServiceHandle, route,
                  h.start_ns, h.end_ns, origin_ns));
    // The response reports only the engine's duration, so its span is
    // placed at the start of its parent.
    int64_t engine_ns = 0;
    if (request.engine_ms >= 0) {
      engine_ns = std::min<int64_t>(
          static_cast<int64_t>(request.engine_ms * 1e6), h.end_ns - h.start_ns);
      emit(SpanJson(request.trace_id, SpanKind::kEngineQuery, route,
                    h.start_ns, h.start_ns + engine_ns, origin_ns));
    }
    if (!read) return;
    // Each child is clipped to its parent, so self times partition the
    // root span.
    const int64_t covered = std::max<int64_t>(
        0, std::min(h.end_ns, request.end_ns) -
               std::max(h.start_ns, request.start_ns));
    const double c_ms = static_cast<double>(request.end_ns - request.start_ns) * 1e-6;
    const double h_ms = static_cast<double>(covered) * 1e-6;
    const double e_ms = std::min(static_cast<double>(engine_ns) * 1e-6, h_ms);
    client.push_back(c_ms);
    handle.push_back(static_cast<double>(h.end_ns - h.start_ns) * 1e-6);
    http_self.push_back(c_ms - h_ms);
    service_self.push_back(h_ms - e_ms);
    engine.push_back(e_ms);
    if (request.engine_ms >= 0) engine_miss.push_back(request.engine_ms);
  };
  for (const ClientStats& stats : load.clients()) {
    for (const TracedRequest& request : stats.traced) {
      visit(request, read_route, true);
    }
  }
  for (const TracedRequest& request : load.writer().traced) {
    visit(request, Route::kEdges, false);
  }
  out << "\n]\n";

  summary.requests = client.size();
  summary.misses = engine_miss.size();
  summary.client_ms = Mean(client);
  summary.handle_ms = Mean(handle);
  summary.http_self_ms = Mean(http_self);
  summary.service_self_ms = Mean(service_self);
  summary.engine_ms = Mean(engine);
  summary.engine_miss_ms = Mean(engine_miss);
  const double parts =
      summary.http_self_ms + summary.service_self_ms + summary.engine_ms;
  summary.addup_error_pct =
      100.0 * Ratio(std::abs(parts - summary.client_ms), summary.client_ms);
  return summary;
}

// ResultCache::Insert then Get of `results`, on a cache configured like
// a tenant's: median microseconds per call.
std::pair<double, double> CacheProbe(const std::vector<NodeId>& nodes,
                                     const std::vector<SimPushResult>& results) {
  serve::ResultCacheConfig config;
  config.byte_budget = ServiceConfig().cache_bytes;
  serve::ResultCache cache(config);
  const uint64_t fingerprint = serve::OptionsFingerprint(EngineOptions());
  const size_t entries = std::min(kCacheProbeEntries, results.size());
  std::vector<double> insert_us, get_us;
  for (size_t i = 0; i < entries; ++i) {
    const Clock::time_point start = Clock::now();
    cache.Insert(nodes[i], fingerprint, results[i]);
    insert_us.push_back(SecondsSince(start) * 1e6);
  }
  SimPushResult out;
  for (int rep = 0; rep < kCacheProbeGets; ++rep) {
    for (size_t i = 0; i < entries; ++i) {
      const Clock::time_point start = Clock::now();
      cache.Get(nodes[i], fingerprint, &out);
      get_us.push_back(SecondsSince(start) * 1e6);
    }
  }
  return {Median(insert_us), Median(get_us)};
}

struct PublishSummary {
  std::vector<double> round_trip_ms;
  std::vector<double> swap_ms;
  uint64_t swaps = 0;
  uint64_t delta_swaps = 0;
};

// Publishes a few update batches over HTTP after the window, for
// workloads that have no writer of their own.
StatusOr<PublishSummary> ProbePublishes(ServingStack* stack,
                                        const Graph& graph, uint64_t seed) {
  serve::GraphRegistry& registry = stack->registry();
  PublishSummary summary;
  const auto before = registry.Stats(kTenant);
  if (!before.ok()) return before.status();
  serve::HttpClient client("127.0.0.1", stack->port(), NoRetry());
  for (const auto& batch : MakeUpdateBatches(
           graph, kProbePublishes, DeriveStreamSeed(seed, kProbeStream))) {
    const Clock::time_point start = Clock::now();
    auto response = client.Post(
        "/v1/graphs/" + std::string(kTenant) + "/edges", EdgesBody(batch, 0));
    const double ms = SecondsSince(start) * 1e3;
    if (!response.ok()) return response.status();
    if (response->status != 200) return Status::Internal(response->body);
    summary.round_trip_ms.push_back(ms);
    const auto after = registry.Stats(kTenant);
    if (!after.ok()) return after.status();
    summary.swap_ms.push_back(after->last_swap_ms);
    summary.swaps = after->swap_count - before->swap_count;
    summary.delta_swaps = after->delta_swaps - before->delta_swaps;
  }
  return summary;
}

}  // namespace

StatusOr<std::vector<Metric>> LayerMetrics(
    const WindowRecord& window, const LoadGenerator& load,
    std::vector<Span> handles, ServingStack* stack,
    const serve::GraphGeneration& serving, const std::string& trace_path,
    std::vector<Metric>* diagnostics) {
  const WorkloadSpec& spec = *window.spec;
  serve::GraphRegistry& registry = stack->registry();
  const serve::TenantStats& s0 = window.stats_start;
  const serve::TenantStats& s1 = window.stats_end;

  const SpanSummary spans = SummarizeSpans(
      load, spec.endpoint == Endpoint::kBatch ? Route::kBatch : Route::kQuery,
      handles, window.window_start_ns, trace_path);

  // Stage split and engine counts: the window's misses replayed on the
  // serving generation.
  std::vector<SimPushResult> replays;
  SIMPUSH_RETURN_NOT_OK(ReplayQueries(serving.core(), window.miss_nodes,
                                      kServerThreads, &replays));
  std::vector<double> total, source_push, gamma, reverse_push, walks, levels,
      attention, reverse_edges;
  double push_seconds = 0, walk_count = 0;
  for (const SimPushResult& replay : replays) {
    const SimPushQueryStats& q = replay.stats;
    total.push_back(q.total_seconds * 1e3);
    source_push.push_back(q.source_push_seconds * 1e3);
    gamma.push_back(q.gamma_seconds * 1e3);
    reverse_push.push_back(q.reverse_push_seconds * 1e3);
    walks.push_back(static_cast<double>(q.walks_sampled));
    levels.push_back(q.max_level);
    attention.push_back(static_cast<double>(q.num_attention));
    reverse_edges.push_back(static_cast<double>(q.reverse_edges));
    push_seconds += q.source_push_seconds;
    walk_count += static_cast<double>(q.walks_sampled);
  }

  const Clock::time_point lease_start = Clock::now();
  for (int i = 0; i < kLeaseProbes; ++i) {
    SIMPUSH_RETURN_NOT_OK(registry.Lease(kTenant).status());
  }
  const double lease_us = SecondsSince(lease_start) * 1e6 / kLeaseProbes;

  const auto [insert_us, get_us] = CacheProbe(window.miss_nodes, replays);

  // The batch fan-out on the serving generation's pools over the first
  // kBatchNodes misses, against the same nodes run one after another on
  // one thread.
  const std::vector<NodeId> batch_nodes(
      window.miss_nodes.begin(),
      window.miss_nodes.begin() +
          std::min(kBatchNodes, window.miss_nodes.size()));
  std::vector<SimPushResult> serial;
  SIMPUSH_RETURN_NOT_OK(ReplayQueries(serving.core(), batch_nodes, 1, &serial));
  double serial_ms = 0;
  for (const SimPushResult& result : serial) {
    serial_ms += result.stats.total_seconds * 1e3;
  }
  std::vector<double> batch_ms;
  for (int rep = 0; rep < kBatchProbeReps; ++rep) {
    ParallelBatchStats stats;
    auto batch = ParallelQueryBatchTopK(serving.core(), registry.thread_pool(),
                                        serving.workspaces(), batch_nodes,
                                        kTopK, &stats);
    if (!batch.ok()) return batch.status();
    batch_ms.push_back(stats.wall_seconds * 1e3);
  }

  // Publishes: the window's own on churn, probes on the other workloads.
  PublishSummary publishes;
  std::vector<double> pool_created;
  if (spec.churn) {
    for (const Publish& publish : load.writer().accepted) {
      if (!publish.in_window) continue;
      publishes.round_trip_ms.push_back(publish.round_trip_ms);
      publishes.swap_ms.push_back(publish.swap_ms);
      pool_created.push_back(static_cast<double>(publish.pool_created));
    }
    publishes.swaps = s1.swap_count - s0.swap_count;
    publishes.delta_swaps = s1.delta_swaps - s0.delta_swaps;
  } else {
    pool_created.push_back(static_cast<double>(s1.pool_created));
    SIMPUSH_ASSIGN_OR_RETURN(
        publishes, ProbePublishes(stack, serving.graph(), window.seed));
  }

  std::vector<double> traced_ms, untraced_ms;
  for (const ClientStats& stats : load.clients()) {
    traced_ms.insert(traced_ms.end(), stats.traced_ms.begin(),
                     stats.traced_ms.end());
    untraced_ms.insert(untraced_ms.end(), stats.untraced_ms.begin(),
                       stats.untraced_ms.end());
  }
  const double hits = static_cast<double>(s1.cache_hits - s0.cache_hits);
  const double misses = static_cast<double>(s1.cache_misses - s0.cache_misses);
  const double rejects = static_cast<double>(s1.cache_admission_rejects -
                                             s0.cache_admission_rejects);
  const double insert_attempts =
      rejects + static_cast<double>(s1.cache_inserts - s0.cache_inserts) +
      static_cast<double>(s1.cache_insert_failures - s0.cache_insert_failures);
  const double batch_median_ms = Median(batch_ms);
  const double walks_mean = Mean(walks);

  diagnostics->insert(
      diagnostics->end(),
      {{"trace.requests", static_cast<double>(spans.requests), "count"},
       {"trace.orphans", static_cast<double>(spans.orphans), "count"},
       {"trace.client_ms", spans.client_ms, "ms"},
       {"trace.engine_ms", spans.engine_ms, "ms"},
       {"trace.addup_error_pct", spans.addup_error_pct, "%"},
       {"trace.replayed_nodes", static_cast<double>(replays.size()), "count"}});
  return std::vector<Metric>{
      {"registry.lease_us", lease_us, "us"},
      {"registry.publish_ms", Median(publishes.round_trip_ms), "ms"},
      {"registry.swap_ms", Median(publishes.swap_ms), "ms"},
      {"registry.delta_ratio",
       Ratio(static_cast<double>(publishes.delta_swaps),
             static_cast<double>(publishes.swaps)), "ratio"},
      {"registry.live_generations_max",
       static_cast<double>(window.live_generations_max), "count"},
      {"http.self_ms", spans.http_self_ms, "ms"},
      {"http.rejected_503", static_cast<double>(window.rejected_503), "count"},
      {"service.handle_ms", spans.handle_ms, "ms"},
      {"service.self_ms", spans.service_self_ms, "ms"},
      {"cache.hit_ratio", Ratio(hits, hits + misses), "ratio"},
      {"cache.get_us", get_us, "us"},
      {"cache.insert_us", insert_us, "us"},
      {"cache.admission_reject_ratio", Ratio(rejects, insert_attempts),
       "ratio"},
      {"cache.evictions_per_req",
       Ratio(static_cast<double>(s1.cache_evictions - s0.cache_evictions),
             static_cast<double>(window.completed)), "1/req"},
      {"pool.created_per_swap", Mean(pool_created), "1/swap"},
      // Batches report no per-query stats; their engine time comes from
      // the replays.
      {"engine.query_ms",
       spans.misses > 0 ? spans.engine_miss_ms : Mean(total), "ms"},
      {"engine.source_push_ms", Mean(source_push), "ms"},
      {"engine.gamma_ms", Mean(gamma), "ms"},
      {"engine.reverse_push_ms", Mean(reverse_push), "ms"},
      {"engine.walks_per_query", walks_mean, "count"},
      {"engine.walk_cap_ratio",
       walks_mean / static_cast<double>(EngineOptions().walk_budget_cap),
       "ratio"},
      {"engine.max_level", Mean(levels), "count"},
      {"engine.attention_nodes", Mean(attention), "count"},
      {"engine.reverse_edges", Mean(reverse_edges), "count"},
      {"walk.ns_per_walk", 1e9 * Ratio(push_seconds, walk_count), "ns"},
      {"parallel.batch_ms", batch_median_ms, "ms"},
      {"parallel.efficiency",
       Ratio(serial_ms,
             static_cast<double>(registry.num_threads()) * batch_median_ms),
       "ratio"},
      {"trace.overhead_pct",
       100.0 * (Ratio(Median(traced_ms), Median(untraced_ms)) - 1.0), "%"},
  };
}

}  // namespace bench_e2e
}  // namespace simpush
