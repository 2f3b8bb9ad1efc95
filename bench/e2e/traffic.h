// Workloads and the seeded closed-loop load generator.
//
// Every reader is a closed loop: SimRank callers (recommendation and
// dedup services) wait for each reply through bounded connection
// pools. The churn workload's writer is the one open-loop actor: it
// publishes an update batch on a fixed clock, whatever the readers do.
// The generator never opens more connections than the server has HTTP
// workers — a keep-alive connection pins a worker, so an extra one
// would wait in the accept queue until the idle timeout.

#ifndef SIMPUSH_BENCH_E2E_TRAFFIC_H_
#define SIMPUSH_BENCH_E2E_TRAFFIC_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "graph/dynamic_graph.h"
#include "graph/graph.h"
#include "inputs.h"
#include "stack.h"

namespace simpush {
namespace bench_e2e {

enum class Endpoint { kQuery, kBatch };

struct WorkloadSpec {
  std::string_view name;
  const GraphSpec* graph;
  Endpoint endpoint;
  double zipf_s;        ///< 0 = uniform sources.
  size_t clients;       ///< Closed-loop reader connections.
  bool churn;           ///< A clocked writer publishes update batches.
  double window_scale;  ///< Measured window = --seconds × this.
};

// Window scales keep every workload above its sample floor with
// --seconds 20 at the reference box's rates, ≥1 000 reads (web ~55/s,
// churn ~42/s, Zipf ~550/s) and ≥500 batches (~20/s), so ≥50 samples
// lie beyond p90. Zipf clears its floor in a few seconds, so its window
// is the shortest; that keeps the 92 runs of a comparison well inside
// their time budget.
inline constexpr WorkloadSpec kWorkloads[] = {
    {"query_web_uniform", &kWebGraph, Endpoint::kQuery, 0.0, 4, false, 1.25},
    {"query_small_zipf", &kSmallGraph, Endpoint::kQuery, 1.1, 4, false, 0.5},
    // Two clients, not one: a lone closed-loop client leaves every vCPU
    // idle between batches, and on a shared host each batch then waits
    // for the hypervisor to wake four of them (reported as steal). In
    // interleaved runs that put the per-run spread of p50 at 25% and of
    // p90 at 60%, against 8% and 6% with two clients. Two clients keep
    // the 4-thread pool saturated, so this workload measures the pool's
    // capacity and the queueing behind the other client's batch; the
    // fan-out's width shows in parallel.efficiency instead.
    {"batch_small_uniform", &kSmallGraph, Endpoint::kBatch, 0.0, 2, false, 1.5},
    // 3 readers + the writer's connection = kServerThreads.
    {"churn_web_uniform", &kWebGraph, Endpoint::kQuery, 0.0, 3, true, 1.5},
};

const WorkloadSpec* FindWorkload(std::string_view name);

inline constexpr size_t kTopK = 10;
inline constexpr size_t kBatchNodes = 8;
inline constexpr double kWarmupSeconds = 3.0;
inline constexpr int kPublishPeriodMs = 250;
inline constexpr size_t kUpdatesPerPublish = 64;
inline constexpr double kDeleteFraction = 0.5;
/// Node results each run replays through QueryRunner (gate 1).
inline constexpr size_t kReplayNodes = 32;
/// Miss nodes kept for the traced run's stage-split replays.
inline constexpr size_t kStageReplayNodes = 64;

/// The churn writer's update batches, cut from one GenerateUpdateStream
/// against the initial graph, so batch i is valid once batches < i are
/// applied. Within a batch the inserts come first, the order in which
/// POST /v1/graphs/{name}/edges applies them.
std::vector<std::vector<EdgeUpdate>> MakeUpdateBatches(const Graph& initial,
                                                       size_t num_batches,
                                                       uint64_t seed);

/// The POST /v1/graphs/{name}/edges body publishing `batch` at once
/// ("swap":true); a nonzero `trace_id` is carried for the tracer.
std::string EdgesBody(const std::vector<EdgeUpdate>& batch,
                      uint64_t trace_id);

/// A response kept for replay, with the generation that served it.
struct KeptResponse {
  uint64_t generation = 0;
  std::string body;
};

/// One traced read request, as seen by the client.
struct TracedRequest {
  uint64_t trace_id = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Engine time from the response's stats.total_ms; -1 for cache hits
  /// and batches (which report no per-query stats).
  double engine_ms = -1;
};

/// What one reader saw. Window counts cover requests sent at or after
/// the window start and answered by its end.
struct ClientStats {
  uint64_t attempted = 0;     ///< Whole run (warm-up + window).
  uint64_t failed = 0;        ///< Transport errors and non-200 answers.
  uint64_t rejected_503 = 0;
  uint64_t completed_in_window = 0;  ///< 200s answered inside the window.
  uint64_t hits_in_window = 0;
  std::vector<double> latency_ms;    ///< 200s sent and answered in window.
  std::vector<double> traced_ms;     ///< Trace mode: the traced half.
  std::vector<double> untraced_ms;   ///< Trace mode: the untraced half.
  std::vector<TracedRequest> traced;
  std::vector<KeptResponse> kept;    ///< Reservoir sample for replay.
  std::vector<NodeId> miss_nodes;    ///< Computed (uncached) sources.
  uint64_t window_responses = 0;     ///< Reservoir stream length.
};

/// One accepted publish.
struct Publish {
  size_t batch = 0;
  uint64_t generation = 0;
  double round_trip_ms = 0;
  bool in_window = false;
  double swap_ms = 0;            ///< Trace mode: TenantStats::last_swap_ms.
  size_t pool_created = 0;       ///< Trace mode: retired generation's pool.
};

struct WriterStats {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t rejected_503 = 0;
  std::vector<Publish> accepted;
  std::vector<TracedRequest> traced;  ///< Trace mode: window publishes.
  double max_late_ms = 0;  ///< Worst delay of a send behind its clock.
};

/// Runs the workload's readers (and writer) against `port` from
/// Start() until the window ends, then parks them so their CPU clocks
/// stay readable until Join().
class LoadGenerator {
 public:
  /// `batches` is used only by churn workloads. A non-null `registry`
  /// (trace mode) lets the writer read swap timings around each publish.
  LoadGenerator(const WorkloadSpec& spec, uint64_t seed, NodeId num_nodes,
                uint16_t port, bool trace,
                std::vector<std::vector<EdgeUpdate>> batches,
                serve::GraphRegistry* registry);
  ~LoadGenerator();

  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  /// Spawns the threads. Traffic starts at once (the warm-up) and stops
  /// at `window_end`.
  void Start(Clock::time_point window_start, Clock::time_point window_end);
  /// CPU seconds consumed so far by all generator threads.
  double ThreadCpuSeconds() const;
  /// Releases the parked threads and joins them.
  void Join();

  const std::vector<ClientStats>& clients() const { return clients_; }
  const WriterStats& writer() const { return writer_; }
  const std::vector<std::vector<EdgeUpdate>>& batches() const {
    return batches_;
  }

 private:
  void ClientLoop(size_t index);
  void WriterLoop();
  void Park();

  const WorkloadSpec spec_;
  const uint64_t seed_;
  const NodeId num_nodes_;
  const uint16_t port_;
  const bool trace_;
  const std::vector<std::vector<EdgeUpdate>> batches_;
  serve::GraphRegistry* const registry_;
  // Zipf workloads: cdf_[r] = P(rank <= r), rank r serves node perm_[r].
  std::vector<double> cdf_;
  std::vector<NodeId> perm_;

  Clock::time_point load_start_;
  Clock::time_point window_start_;
  Clock::time_point window_end_;
  std::vector<ClientStats> clients_;
  WriterStats writer_;
  std::atomic<bool> released_{false};
  std::vector<std::thread> threads_;
};

}  // namespace bench_e2e
}  // namespace simpush

#endif  // SIMPUSH_BENCH_E2E_TRAFFIC_H_
