// GraphRegistry: the multi-tenant catalog behind the serving front end,
// with RCU-style hot swap.
//
// SimPush's headline property is that it is index-free: a query needs
// nothing but the current graph, so the system can answer on a graph
// that changed a moment ago. The registry turns that into a serving
// capability. Each named tenant owns
//
//   - a published *generation*: an immutable bundle of
//     Graph snapshot + EngineCore + result cache, held through
//     std::shared_ptr<const GraphGeneration>,
//   - the PendingEdits accepted since that generation: a net count per
//     edited (src, dst) pair, not a second copy of the graph, and
//   - one TenantCounters record (cache, request and latency counters)
//     that every generation of the tenant shares.
//
// Queries take a lease (a shared_ptr copy) on the current generation
// and run entirely against that bundle. A swap builds the next
// generation in the background by merging the pending edits into a
// copy of the live generation's CSR arrays (PendingEdits::Merge: runs
// of untouched rows are copied, edited rows are patched), and then
// publishes it with one pointer store; an options change re-publishes
// the live Graph itself. In-flight queries keep serving from the
// generation they leased — they never block on a swap, never observe a
// half-updated graph, and the old generation is freed automatically
// when the last lease drops (classic RCU via shared_ptr reference
// counts).
//
// One ThreadPool (batch fan-outs) and one WorkspacePool (query scratch)
// serve every tenant. A workspace is tied to no graph —
// QueryWorkspace::Prepare grows it to any n, and a swap keeps a
// tenant's n — so a new generation starts on warm scratch.
//
// Thread-safety contract: every public method is safe from any thread.
// Lease() is the hot path — a map lookup plus a shared_ptr copy under
// short mutexes, no allocation. ApplyUpdates/Swap serialize per tenant
// (updates to different tenants proceed in parallel); the O(n+m) merge
// and rebuild happen outside any lock a query path takes.

#ifndef SIMPUSH_SERVE_REGISTRY_H_
#define SIMPUSH_SERVE_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/annotations.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "graph/dynamic_graph.h"
#include "graph/graph.h"
#include "serve/result_cache.h"
#include "simpush/engine_core.h"
#include "simpush/options.h"
#include "simpush/workspace_pool.h"

namespace simpush {
namespace serve {

/// Configuration for a GraphRegistry.
struct RegistryOptions {
  /// Worker threads in the shared /v1/batch fan-out pool, shared
  /// across all graphs (0 = hardware concurrency).
  size_t num_threads = 0;
  /// Workspaces in the one pool all queries share (0 = match
  /// num_threads). See docs/serving.md for tuning pool_capacity vs threads.
  size_t pool_capacity = 0;
  /// Pending updates that trigger an automatic swap from ApplyUpdates
  /// (0 = swaps only happen through an explicit Swap() call, i.e.
  /// POST /v1/graphs/{name}/swap).
  size_t swap_threshold = 0;
  /// Maximum number of tenants (Add beyond this fails).
  size_t max_graphs = 64;
  /// Per-tenant result-cache byte budget. Each published generation
  /// carries its own cache bounded by this budget; 0 disables caching.
  /// Entries are keyed by (generation, source, options fingerprint)
  /// and die with their generation — swaps need no invalidation. See
  /// docs/serving.md, "Result cache".
  size_t cache_bytes = 64u << 20;
};

/// Point-in-time latency percentiles computed from a ring buffer.
struct LatencySnapshot {
  size_t samples = 0;  ///< Entries in the ring (<= LatencyRing::kSize).
  double p50_ms = 0;
  double p90_ms = 0;
  double p99_ms = 0;
  double max_ms = 0;
};

/// The last kSize request latencies in a ring preallocated at
/// construction; Record never allocates.
struct LatencyRing {
  static constexpr size_t kSize = 2048;

  LatencyRing() : ring(kSize, 0.0) {}
  void Record(double seconds);
  LatencySnapshot Snapshot() const;

  mutable Mutex mu;
  std::vector<double> ring SIMPUSH_GUARDED_BY(mu);
  size_t next SIMPUSH_GUARDED_BY(mu) = 0;
  size_t filled SIMPUSH_GUARDED_BY(mu) = 0;
};

/// Every counter one tenant accumulates over its lifetime. GraphRegistry
/// creates it with the tenant and hands it to each generation the
/// tenant publishes, so the counters survive swaps and option changes,
/// while a deleted and re-created name starts from a fresh object. A
/// request counts into the counters of the generation it leased, so it
/// is always charged to the tenant it ran on.
struct TenantCounters {
  ResultCacheMetrics cache;  ///< Every generation's result cache.
  // The query endpoints' counters (/v1/query, /v1/topk, /v1/batch).
  std::atomic<uint64_t> requests{0};
  std::atomic<uint64_t> nodes_scored{0};
  std::atomic<uint64_t> deadline_expired{0};   ///< 504 responses.
  std::atomic<uint64_t> client_abandoned{0};   ///< 499: client left.
  LatencyRing latency;
};

/// How a tenant came to publish one generation, stamped once by the
/// registry's publish path: every value agrees with its generation.
struct PublishRecord {
  uint64_t options_generation = 0;  ///< Where its options took effect.
  uint64_t swap_count = 0;   ///< Generations published, this one included.
  uint64_t delta_swaps = 0;  ///< Rebuilds: generations merged from edits.
  /// Wall time of the merge and core build (an options change: the core
  /// alone) this generation took, ms; 0 for the tenant's first one.
  double last_swap_ms = 0;
};

/// One immutable, published graph generation: snapshot + core + cache
/// + publish record. Deeply const except the shared workspace pool, the
/// cache and the tenant counters, which are internally synchronized.
/// Generations are shared via shared_ptr and never mutated after
/// publication; they die when the registry has swapped past them AND the
/// last in-flight lease has dropped.
class GraphGeneration {
 public:
  /// `core` must be bound to `*graph`. `live_counter` (may be null) is
  /// decremented on destruction (the registry's generation-leak gauge);
  /// `cache_bytes` bounds the result cache (0 = none); `counters`
  /// (non-null) is the tenant's record, which the cache counts into.
  GraphGeneration(uint64_t id, std::shared_ptr<const Graph> graph,
                  EngineCore core, std::shared_ptr<WorkspacePool> workspaces,
                  std::shared_ptr<std::atomic<int64_t>> live_counter,
                  size_t cache_bytes, std::shared_ptr<TenantCounters> counters,
                  const PublishRecord& publish);
  ~GraphGeneration();

  GraphGeneration(const GraphGeneration&) = delete;
  GraphGeneration& operator=(const GraphGeneration&) = delete;

  /// Monotonically increasing across the whole registry; a response
  /// tagged with this id is reproducible from the generation's graph.
  uint64_t id() const { return id_; }
  /// The immutable snapshot this generation serves.
  const Graph& graph() const { return *graph_; }
  /// The snapshot's shared handle, which an options change re-publishes.
  const std::shared_ptr<const Graph>& shared_graph() const { return graph_; }
  /// The shared engine core bound to graph(); its options() are the
  /// tenant's engine options for this generation.
  const EngineCore& core() const { return core_; }
  /// The registry's scratch pool, shared by every generation (internally
  /// synchronized; leasing scratch does not mutate the generation).
  WorkspacePool& workspaces() const { return *workspaces_; }
  /// This generation's result cache, or nullptr when caching is off.
  /// Internally synchronized, like the workspace pool; dying with the
  /// generation is what makes cache invalidation unnecessary.
  ResultCache* cache() const { return cache_.get(); }
  /// Fingerprint of the options this generation was built from —
  /// precomputed so the no-override query path hashes nothing.
  uint64_t options_fingerprint() const { return options_fingerprint_; }
  /// The owning tenant's counters (internally synchronized; shared by
  /// every generation of the tenant).
  TenantCounters& counters() const { return *counters_; }
  /// How the tenant published this generation.
  const PublishRecord& publish() const { return publish_; }

 private:
  const uint64_t id_;
  const std::shared_ptr<const Graph> graph_;
  const EngineCore core_;  // References *graph_.
  const std::shared_ptr<WorkspacePool> workspaces_;
  const uint64_t options_fingerprint_;
  const std::shared_ptr<TenantCounters> counters_;
  const std::unique_ptr<ResultCache> cache_;
  const PublishRecord publish_;
  std::shared_ptr<std::atomic<int64_t>> live_;
};

/// A query's hold on one generation: shared ownership, so the bundle
/// outlives any swap that happens mid-query.
using GenerationLease = std::shared_ptr<const GraphGeneration>;

/// Point-in-time view of one tenant for /v1/stats. Every value that
/// describes a generation comes from the one lease `generation` names.
struct TenantStats {
  uint64_t generation = 0;        ///< Current generation id.
  /// The engine options the current generation runs — the tenant's own
  /// ε/c/δ/seed, NOT the registry-wide default.
  SimPushOptions options;
  // The current generation's PublishRecord.
  uint64_t options_generation = 0;
  uint64_t swap_count = 0;
  uint64_t delta_swaps = 0;
  double last_swap_ms = 0;
  uint64_t pending_updates = 0;   ///< Accepted updates not yet published.
  uint64_t updates_applied = 0;   ///< Lifetime accepted edge updates.
  size_t dirty_vertices = 0;      ///< Vertices pending updates touched.
  NodeId num_nodes = 0;           ///< Nodes in the current generation.
  EdgeId num_edges = 0;           ///< Edges in the current generation.
  EdgeId master_edges = 0;        ///< num_edges + pending net edges.
  size_t pool_created = 0;        ///< Of the registry's shared pool.
  size_t pool_outstanding = 0;    ///< Of the registry's shared pool.
  // Result-cache stats. Counters are tenant-lifetime (they survive
  // swaps); occupancy is the current generation's cache.
  size_t cache_budget_bytes = 0;  ///< 0 when caching is disabled.
  size_t cache_entries = 0;
  size_t cache_bytes = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_inserts = 0;
  uint64_t cache_evictions = 0;
  uint64_t cache_admission_rejects = 0;
  uint64_t cache_insert_failures = 0;
  // Query-endpoint counters, tenant-lifetime like the cache counters.
  uint64_t requests = 0;
  uint64_t nodes_scored = 0;
  uint64_t deadline_expired = 0;
  uint64_t client_abandoned = 0;
  LatencySnapshot latency;
};

/// Result of an ApplyUpdates/Swap call.
struct UpdateOutcome {
  size_t applied = 0;        ///< Updates accepted.
  uint64_t pending = 0;      ///< Updates awaiting a swap afterwards.
  bool swapped = false;      ///< A new generation was published.
  uint64_t generation = 0;   ///< Current generation id afterwards.
};

/// Tenant names are path segments in the admin API; restrict them to
/// 1-64 chars of [A-Za-z0-9._-] so they never need escaping.
bool IsValidGraphName(std::string_view name);

/// The multi-tenant graph catalog. See file comment for the model.
class GraphRegistry {
 public:
  explicit GraphRegistry(const RegistryOptions& options);

  /// Registers `name` serving `graph` (generation 1 for that tenant)
  /// with its own engine options: every generation it publishes —
  /// including hot swaps — builds its EngineCore from `options` until
  /// an UpdateOptions call replaces them, so two tenants can serve the
  /// same graph at different ε/c/δ/seed. Fails with FailedPrecondition
  /// when the name is taken, InvalidArgument for a bad name or invalid
  /// engine options (naming the bad field), OutOfRange at the
  /// max_graphs cap.
  Status Add(const std::string& name, Graph graph,
             const SimPushOptions& options);

  /// Unregisters `name`. The current generation dies once its last
  /// in-flight lease drops; leases already handed out stay valid.
  Status Remove(std::string_view name);

  /// The hot path: the tenant's current generation. No allocation, no
  /// contention with rebuilds — swaps publish with one pointer store.
  StatusOr<GenerationLease> Lease(std::string_view name) const;

  /// Adds `updates` to the tenant's pending edits ATOMICALLY: the whole
  /// batch is validated first (PendingEdits::Apply against the live
  /// generation), so a non-OK return leaves the edits — and anything a
  /// later swap publishes — as they were. Triggers a swap when the
  /// pending count reaches options.swap_threshold (if nonzero) or
  /// `force_swap` is set. Serialized per tenant; never blocks queries.
  StatusOr<UpdateOutcome> ApplyUpdates(std::string_view name,
                                       const std::vector<EdgeUpdate>& updates,
                                       bool force_swap = false);

  /// Merges the pending edits and publishes the result now.
  StatusOr<UpdateOutcome> Swap(std::string_view name);

  /// Replaces the tenant's engine options and re-publishes the CURRENT
  /// generation's graph under them (a new generation id; in-flight
  /// queries keep their leased generation, exactly like a hot swap).
  /// Pending updates are deliberately NOT consumed: an options
  /// change must not smuggle in edges that were awaiting an explicit
  /// swap — they stay pending and apply at the next Swap/threshold.
  /// The new options govern every later generation the tenant
  /// publishes; options_generation records where they took effect.
  StatusOr<UpdateOutcome> UpdateOptions(std::string_view name,
                                        const SimPushOptions& options);

  /// Stats snapshot for one tenant: its gauges and counters, and every
  /// per-generation value from one lease on its current generation.
  StatusOr<TenantStats> Stats(std::string_view name) const;

  /// Registered tenant names, sorted.
  std::vector<std::string> Names() const;
  /// Number of registered tenants.
  size_t size() const;

  /// The fan-out pool shared by every tenant's batch requests.
  ThreadPool& thread_pool() { return thread_pool_; }
  size_t num_threads() const { return thread_pool_.num_threads(); }
  /// The scratch pool shared by every tenant's queries.
  const WorkspacePool& workspaces() const { return *workspaces_; }

  /// GraphGenerations currently alive anywhere (published or held by a
  /// lease). With no queries in flight this equals size() — the
  /// registry_test leak check.
  int64_t live_generations() const { return live_generations_->load(); }

  const RegistryOptions& options() const { return options_; }

 private:
  // Everything about a tenant that is not a fact of one generation. A
  // generation carries its own options and PublishRecord.
  struct Tenant {
    // Serializes edit + merge + publish for this tenant. Never held
    // while executing queries; Lease() does not take it.
    Mutex update_mu;
    PendingEdits edits SIMPUSH_GUARDED_BY(update_mu);  // Since `current`.
    // Between-publish gauges mirrored as atomics (written under
    // update_mu, read anywhere) so Stats() never waits out a rebuild,
    // which holds update_mu across the whole O(n+m) merge.
    std::atomic<uint64_t> pending{0};
    std::atomic<uint64_t> updates_applied{0};
    std::atomic<uint64_t> master_edges{0};
    std::atomic<uint64_t> dirty_vertices{0};

    // The tenant's counters, threaded into every generation it
    // publishes (set once in Add, then read-only).
    std::shared_ptr<TenantCounters> counters;

    // Guards only the `current` pointer; held for a load or store.
    mutable Mutex current_mu;
    GenerationLease current SIMPUSH_GUARDED_BY(current_mu);

    GenerationLease Current() const {
      MutexLock lock(&current_mu);
      return current;
    }
    // Current(), or NotFound for `name` once Remove() has retired it.
    StatusOr<GenerationLease> Published(std::string_view name) const;
    // What an update call reports once it is done.
    UpdateOutcome Outcome(size_t applied, bool swapped) const;
  };

  // The one path that builds and publishes a generation: `graph` under
  // `options` (null: a rebuild, which keeps `base`'s and counts in
  // delta_swaps), with a PublishRecord continuing `base`'s, the tenant's
  // current generation (null for its first), timed by `build` (null: 0).
  Status Publish(Tenant* tenant, const GraphGeneration* base,
                 std::shared_ptr<const Graph> graph,
                 const SimPushOptions* options, const Timer* build)
      SIMPUSH_REQUIRES(tenant->update_mu);
  // Merges tenant->edits into the live generation's graph and publishes
  // the result. The REQUIRES annotation is the compiler-checked form of
  // "caller holds tenant->update_mu" — call sites must lock through a
  // raw Tenant* so the capability expression matches.
  Status RebuildLocked(std::string_view name, Tenant* tenant)
      SIMPUSH_REQUIRES(tenant->update_mu);
  StatusOr<std::shared_ptr<Tenant>> FindTenant(std::string_view name) const
      SIMPUSH_EXCLUDES(map_mu_);

  const RegistryOptions options_;
  ThreadPool thread_pool_;
  const std::shared_ptr<WorkspacePool> workspaces_;
  std::shared_ptr<std::atomic<int64_t>> live_generations_;
  std::atomic<uint64_t> next_generation_id_{1};

  mutable Mutex map_mu_;
  // Heterogeneous lookup (std::less<>) keeps Lease(string_view)
  // allocation-free.
  std::map<std::string, std::shared_ptr<Tenant>, std::less<>> tenants_
      SIMPUSH_GUARDED_BY(map_mu_);
};

}  // namespace serve
}  // namespace simpush

#endif  // SIMPUSH_SERVE_REGISTRY_H_
