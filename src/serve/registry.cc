#include "serve/registry.h"

#include <algorithm>
#include <utility>

#include "common/failpoint.h"
#include "common/timer.h"

namespace simpush {
namespace serve {

namespace {

// The cache counts into the tenant's record: an aliasing shared_ptr
// to its `cache` member keeps the whole record alive.
std::unique_ptr<ResultCache> MakeCache(
    size_t cache_bytes, const std::shared_ptr<TenantCounters>& counters) {
  if (cache_bytes == 0) return nullptr;
  ResultCacheConfig config;
  config.byte_budget = cache_bytes;
  config.metrics =
      std::shared_ptr<ResultCacheMetrics>(counters, &counters->cache);
  return std::make_unique<ResultCache>(config);
}

Status NoSuchGraph(std::string_view name) {
  return Status::NotFound("no graph named \"" + std::string(name) + "\"");
}

}  // namespace

void LatencyRing::Record(double seconds) {
  MutexLock lock(&mu);
  ring[next] = seconds;
  next = (next + 1) % ring.size();
  filled = std::min(filled + 1, ring.size());
}

LatencySnapshot LatencyRing::Snapshot() const {
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

GraphGeneration::GraphGeneration(
    uint64_t id, Graph graph, const SimPushOptions& options,
    size_t pool_capacity, std::shared_ptr<std::atomic<int64_t>> live_counter,
    size_t cache_bytes, std::shared_ptr<TenantCounters> counters,
    const PublishRecord& publish)
    : id_(id),
      graph_(std::move(graph)),
      core_(graph_, options),
      workspaces_(pool_capacity),
      options_fingerprint_(OptionsFingerprint(options)),
      counters_(std::move(counters)),
      cache_(MakeCache(cache_bytes, counters_)),
      publish_(publish),
      live_(std::move(live_counter)) {
  if (live_ != nullptr) live_->fetch_add(1);
}

GraphGeneration::~GraphGeneration() {
  if (live_ != nullptr) live_->fetch_sub(1);
}

bool IsValidGraphName(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                    c == '-';
    if (!ok) return false;
  }
  return true;
}

StatusOr<GenerationLease> GraphRegistry::Tenant::Published(
    std::string_view name) const {
  GenerationLease lease = Current();
  if (lease == nullptr) return NoSuchGraph(name);
  return lease;
}

UpdateOutcome GraphRegistry::Tenant::Outcome(size_t applied,
                                             bool swapped) const {
  UpdateOutcome outcome;
  outcome.applied = applied;
  outcome.swapped = swapped;
  outcome.pending = pending.load();
  const GenerationLease lease = Current();
  outcome.generation = lease != nullptr ? lease->id() : 0;
  return outcome;
}

GraphRegistry::GraphRegistry(const RegistryOptions& options)
    : options_(options),
      thread_pool_(options.num_threads),
      live_generations_(std::make_shared<std::atomic<int64_t>>(0)) {}

Status GraphRegistry::Publish(Tenant* tenant, const GraphGeneration* base,
                              Graph graph, const SimPushOptions* options,
                              double build_ms) {
  const uint64_t id = next_generation_id_.fetch_add(1);
  PublishRecord record;
  if (base != nullptr) record = base->publish();
  ++record.swap_count;
  record.last_swap_ms = build_ms;
  if (options != nullptr) {
    record.options_generation = id;
  } else {
    // A rebuild: the pending edits merged under `base`'s options.
    options = &base->core().options();
    ++record.delta_swaps;
  }
  const size_t capacity = options_.pool_capacity != 0
                              ? options_.pool_capacity
                              : thread_pool_.num_threads();
  GenerationLease next = std::make_shared<const GraphGeneration>(
      id, std::move(graph), *options, capacity, live_generations_,
      options_.cache_bytes, tenant->counters, record);
  // Chaos hook: failure after the build but before the publish — the
  // fully-built `next` must unwind cleanly through the live_generations
  // gauge, with the tenant still serving `base`.
  SIMPUSH_FAILPOINT("registry.publish");
  MutexLock lock(&tenant->current_mu);
  tenant->current = std::move(next);
  return Status::OK();
}

Status GraphRegistry::Add(const std::string& name, Graph graph,
                          const SimPushOptions& options) {
  if (!IsValidGraphName(name)) {
    return Status::InvalidArgument(
        "graph name must be 1-64 chars of [A-Za-z0-9._-]");
  }
  // Reject bad options before the O(n+m) bundle build.
  SIMPUSH_RETURN_NOT_OK(options.Validate());
  // Publish the first generation before touching the map, so a long CSR
  // copy never holds map_mu_.
  auto tenant = std::make_shared<Tenant>();
  {
    // The tenant is not yet reachable from the map, so this lock is
    // uncontended; the analysis has no notion of "not yet shared" for a
    // heap object, so the guarded fields are written under it.
    Tenant* const t = tenant.get();
    MutexLock lock(&t->update_mu);
    // The counters exist before the first generation so every
    // generation (including this one) shares them.
    t->counters = std::make_shared<TenantCounters>();
    t->master_edges.store(graph.num_edges());
    SIMPUSH_RETURN_NOT_OK(Publish(t, /*base=*/nullptr, std::move(graph),
                                  &options, /*build_ms=*/0));
  }

  // Rejections return with `tenant` still owned locally: it was
  // constructed before the MutexLock, so the guard unlocks first and
  // the O(n+m) bundle (graph + core + pool) is freed OUTSIDE map_mu_ —
  // a losing duplicate create must not stall every tenant's Lease()
  // for the duration of a large deallocation.
  MutexLock lock(&map_mu_);
  if (tenants_.find(name) != tenants_.end()) {
    return Status::FailedPrecondition("graph \"" + name +
                                      "\" already exists");
  }
  if (tenants_.size() >= options_.max_graphs) {
    return Status::OutOfRange("graph limit reached (" +
                              std::to_string(options_.max_graphs) + ")");
  }
  tenants_.emplace(name, std::move(tenant));
  return Status::OK();
}

Status GraphRegistry::Remove(std::string_view name) {
  std::shared_ptr<Tenant> tenant;
  {
    MutexLock lock(&map_mu_);
    const auto it = tenants_.find(name);
    if (it == tenants_.end()) return NoSuchGraph(name);
    tenant = std::move(it->second);
    tenants_.erase(it);
  }
  // Drop the published generation eagerly; in-flight leases keep it
  // alive until they finish, after which it frees.
  Tenant* const t = tenant.get();
  MutexLock lock(&t->current_mu);
  t->current.reset();
  return Status::OK();
}

StatusOr<std::shared_ptr<GraphRegistry::Tenant>> GraphRegistry::FindTenant(
    std::string_view name) const {
  std::shared_ptr<Tenant> tenant;
  {
    MutexLock lock(&map_mu_);
    const auto it = tenants_.find(name);
    if (it != tenants_.end()) tenant = it->second;
  }
  if (tenant == nullptr) return NoSuchGraph(name);
  return tenant;
}

StatusOr<GenerationLease> GraphRegistry::Lease(std::string_view name) const {
  SIMPUSH_ASSIGN_OR_RETURN(const std::shared_ptr<Tenant> tenant,
                           FindTenant(name));
  return tenant->Published(name);
}

Status GraphRegistry::RebuildLocked(std::string_view name, Tenant* tenant) {
  // Chaos hook: a rebuild that fails (merge OOM, bad state) must
  // leave the tenant serving its old generation with nothing leaked.
  SIMPUSH_FAILPOINT("registry.rebuild");
  Timer timer;
  SIMPUSH_ASSIGN_OR_RETURN(const GenerationLease base,
                           tenant->Published(name));
  // Merge the pending edits into a copy of the live generation's CSR
  // arrays: rows no edit touched are copied as runs.
  SIMPUSH_ASSIGN_OR_RETURN(Graph graph, tenant->edits.Merge(base->graph()));
  // No options: a hot swap keeps the tenant's ε/c/δ/seed from `base`.
  SIMPUSH_RETURN_NOT_OK(Publish(tenant, base.get(), std::move(graph),
                                /*options=*/nullptr, timer.ElapsedMillis()));
  // Only after a successful publish: a failed one keeps the edits, so
  // the next rebuild merges them again against the still-live `base`.
  tenant->edits.Clear();
  tenant->pending.store(0);
  tenant->dirty_vertices.store(0);
  return Status::OK();
}

StatusOr<UpdateOutcome> GraphRegistry::ApplyUpdates(
    std::string_view name, const std::vector<EdgeUpdate>& updates,
    bool force_swap) {
  SIMPUSH_ASSIGN_OR_RETURN(const std::shared_ptr<Tenant> tenant,
                           FindTenant(name));
  // Raw pointer so the held capability (t->update_mu) syntactically
  // matches RebuildLocked's REQUIRES(tenant->update_mu).
  Tenant* const t = tenant.get();
  MutexLock lock(&t->update_mu);
  // The edits are relative to the live generation; under update_mu no
  // rebuild can replace it, and a removed tenant answers NotFound.
  SIMPUSH_ASSIGN_OR_RETURN(const GenerationLease live, t->Published(name));
  const Status apply_status = t->edits.Apply(live->graph(), updates);
  if (!apply_status.ok()) {
    // Atomic batch semantics (PendingEdits::Apply): nothing was
    // applied, the pending edits are as before the call, and no swap
    // happens — the next publish serves exactly the pre-batch graph.
    // Rewrap as InvalidArgument so an edge-level failure (e.g.
    // removing an absent edge) cannot be confused with the tenant
    // itself being missing.
    return Status::InvalidArgument("batch rejected: " +
                                   std::string(apply_status.message()));
  }
  t->pending.fetch_add(updates.size());
  t->updates_applied.fetch_add(updates.size());
  t->master_edges.store(static_cast<uint64_t>(
      static_cast<int64_t>(live->graph().num_edges()) + t->edits.net_edges()));
  t->dirty_vertices.store(t->edits.dirty_vertices());
  const bool threshold_hit = options_.swap_threshold != 0 &&
                             t->pending.load() >= options_.swap_threshold;
  const bool swap = (force_swap || threshold_hit) && t->pending.load() > 0;
  if (swap) SIMPUSH_RETURN_NOT_OK(RebuildLocked(name, t));
  return t->Outcome(updates.size(), swap);
}

StatusOr<UpdateOutcome> GraphRegistry::Swap(std::string_view name) {
  SIMPUSH_ASSIGN_OR_RETURN(const std::shared_ptr<Tenant> tenant,
                           FindTenant(name));
  Tenant* const t = tenant.get();
  MutexLock lock(&t->update_mu);
  SIMPUSH_RETURN_NOT_OK(RebuildLocked(name, t));
  return t->Outcome(0, /*swapped=*/true);
}

StatusOr<UpdateOutcome> GraphRegistry::UpdateOptions(
    std::string_view name, const SimPushOptions& options) {
  SIMPUSH_RETURN_NOT_OK(options.Validate());
  SIMPUSH_ASSIGN_OR_RETURN(const std::shared_ptr<Tenant> tenant,
                           FindTenant(name));
  // update_mu serializes against rebuilds so the generation we re-wrap
  // cannot be swapped out from under us mid-build.
  Tenant* const t = tenant.get();
  MutexLock lock(&t->update_mu);
  Timer timer;
  SIMPUSH_ASSIGN_OR_RETURN(const GenerationLease current,
                           t->Published(name));
  // Re-publish the CURRENT generation's graph, without the pending
  // edits: an options change must not smuggle in edge updates. The
  // copy holds the same edges, so the edits still merge against it.
  Graph graph(current->graph());
  SIMPUSH_RETURN_NOT_OK(Publish(t, current.get(), std::move(graph), &options,
                                timer.ElapsedMillis()));
  return t->Outcome(0, /*swapped=*/true);
}

StatusOr<TenantStats> GraphRegistry::Stats(std::string_view name) const {
  SIMPUSH_ASSIGN_OR_RETURN(const std::shared_ptr<Tenant> tenant,
                           FindTenant(name));
  // One lease for every per-generation value, so they all describe the
  // same generation; atomic gauges, not update_mu, for the rest: a stats
  // scrape must never wait out a rebuild holding the lock across its
  // O(n+m) merge.
  SIMPUSH_ASSIGN_OR_RETURN(const GenerationLease current,
                           tenant->Published(name));
  TenantStats stats;
  stats.generation = current->id();
  stats.options = current->core().options();
  const PublishRecord& publish = current->publish();
  stats.options_generation = publish.options_generation;
  stats.swap_count = publish.swap_count;
  stats.delta_swaps = publish.delta_swaps;
  stats.last_swap_ms = publish.last_swap_ms;
  stats.num_nodes = current->graph().num_nodes();
  stats.num_edges = current->graph().num_edges();
  stats.pool_capacity = current->workspaces().capacity();
  stats.pool_created = current->workspaces().created();
  stats.pool_outstanding = current->workspaces().outstanding();
  if (const ResultCache* cache = current->cache()) {
    stats.cache_budget_bytes = cache->budget_bytes();
    stats.cache_entries = cache->entries();
    stats.cache_bytes = cache->bytes();
  }
  stats.pending_updates = tenant->pending.load();
  stats.updates_applied = tenant->updates_applied.load();
  stats.master_edges = tenant->master_edges.load();
  stats.dirty_vertices = static_cast<size_t>(tenant->dirty_vertices.load());
  const TenantCounters& counters = *tenant->counters;
  const ResultCacheMetrics& m = counters.cache;
  stats.cache_hits = m.hits.load(std::memory_order_relaxed);
  stats.cache_misses = m.misses.load(std::memory_order_relaxed);
  stats.cache_inserts = m.inserts.load(std::memory_order_relaxed);
  stats.cache_evictions = m.evictions.load(std::memory_order_relaxed);
  stats.cache_admission_rejects =
      m.admission_rejects.load(std::memory_order_relaxed);
  stats.cache_insert_failures =
      m.insert_failures.load(std::memory_order_relaxed);
  stats.requests = counters.requests.load();
  stats.nodes_scored = counters.nodes_scored.load();
  stats.deadline_expired = counters.deadline_expired.load();
  stats.client_abandoned = counters.client_abandoned.load();
  stats.latency = counters.latency.Snapshot();
  return stats;
}

std::vector<std::string> GraphRegistry::Names() const {
  std::vector<std::string> names;
  MutexLock lock(&map_mu_);
  names.reserve(tenants_.size());
  for (const auto& [name, tenant] : tenants_) names.push_back(name);
  return names;  // std::map iterates sorted.
}

size_t GraphRegistry::size() const {
  MutexLock lock(&map_mu_);
  return tenants_.size();
}

}  // namespace serve
}  // namespace simpush
