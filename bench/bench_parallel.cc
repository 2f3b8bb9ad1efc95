// Parallel batch throughput bench (extension; the paper's §7 names
// batch SimRank processing as future work).
//
// Measures end-to-end wall time for a fixed batch of single-source
// queries at 1, 2, 4, and 8 worker threads, comparing three execution
// models:
//   engine/worker — one full SimPushEngine (and its O(n) scratch)
//                   constructed per worker, the pre-pool design;
//   pooled        — one shared immutable EngineCore + a WorkspacePool
//                   capped at the worker count (ParallelQueryBatch);
//   pooled-half   — same, pool capped at half the workers: the
//                   memory/parallelism tradeoff only the pool exposes.
// Reported per row: wall time, aggregate and per-worker queries/second,
// speedup over one thread, summed per-query CPU time, and process peak
// RSS (monotone per process — within a thread count the pooled rows run
// first so their readings are not inflated by the baseline's).
// Per-query results are bitwise independent of thread count and of
// which model ran them (seeded per query node), so accuracy columns are
// omitted — only scheduling changes.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.h"
#include "bench_json.h"
#include "common/memory.h"
#include "common/thread_pool.h"
#include "simpush/parallel.h"
#include "simpush/simpush.h"

namespace simpush {
namespace bench {
namespace {

struct RunRow {
  ParallelBatchStats stats;
  size_t peak_rss = 0;
};

// The pre-pool execution model, kept as the bench baseline: a private
// engine (core + workspace) per worker chunk.
RunRow RunEnginePerWorker(const Graph& graph, const SimPushOptions& options,
                          const std::vector<NodeId>& queries,
                          size_t num_threads, size_t* sink) {
  RunRow row;
  // Pool construction precedes the timer on both models: the pooled
  // path times only the batch (its executor is built first too), so
  // thread-spawn cost must not be charged to this baseline either. The
  // pool is destroyed to wait for the chunks: its destructor drains the
  // queue and joins the workers.
  std::optional<ThreadPool> pool(std::in_place, num_threads);
  Timer wall;
  row.stats.num_threads = pool->num_threads();
  std::atomic<size_t> ok{0};
  std::atomic<size_t> local_sink{0};
  std::atomic<uint64_t> cpu_nanos{0};
  const size_t workers = pool->num_threads();
  const size_t chunk = (queries.size() + workers - 1) / workers;
  for (size_t w = 0; w < workers; ++w) {
    const size_t begin = w * chunk;
    const size_t end = std::min(queries.size(), begin + chunk);
    if (begin >= end) break;
    pool->Submit([&, begin, end] {
      SimPushEngine engine(graph, options);
      SimPushResult result;
      for (size_t i = begin; i < end; ++i) {
        if (!engine.QueryInto(queries[i], &result).ok()) continue;
        ok.fetch_add(1);
        cpu_nanos.fetch_add(
            static_cast<uint64_t>(result.stats.total_seconds * 1e9));
        local_sink.fetch_add(result.scores.size());
      }
    });
  }
  pool.reset();
  row.stats.queries_ok = ok.load();
  row.stats.cpu_query_seconds = cpu_nanos.load() / 1e9;
  row.stats.wall_seconds = wall.ElapsedSeconds();
  row.peak_rss = PeakRssBytes();
  *sink += local_sink.load();
  return row;
}

RunRow RunPooled(const Graph& graph, const SimPushOptions& options,
                 const std::vector<NodeId>& queries, size_t num_threads,
                 size_t pool_capacity, size_t* sink) {
  RunRow row;
  const EngineCore core(graph, options);
  ThreadPool thread_pool(num_threads);
  WorkspacePool workspaces(pool_capacity != 0 ? pool_capacity
                                              : thread_pool.num_threads());
  std::atomic<size_t> local_sink{0};
  row.stats = ParallelQueryBatch(
      core, thread_pool, workspaces, queries,
      [&local_sink](size_t, const SimPushResult& result) {
        // Keep results alive to the end.
        local_sink.fetch_add(result.scores.size());
        return true;
      });
  row.peak_rss = PeakRssBytes();
  *sink += local_sink.load();
  return row;
}

// Trajectory collector (active only with --json): one record per
// (dataset, model, thread count), sampled as per-query wall latency
// with throughput/RSS as counters.
std::map<std::string, BenchSamples>* g_trajectory = nullptr;

void PrintRow(const char* model, const RunRow& row, size_t batch,
              double baseline_wall, const std::string& dataset) {
  const double qps = batch / row.stats.wall_seconds;
  double rss = static_cast<double>(row.peak_rss);
  const char* unit = HumanBytesUnit(&rss);
  std::printf("%-14s %-8zu %11.3f %11.1f %14.1f %9.2f %12.3f %9.1f%s\n",
              model, row.stats.num_threads, row.stats.wall_seconds, qps,
              qps / row.stats.num_threads,
              baseline_wall / row.stats.wall_seconds,
              row.stats.cpu_query_seconds, rss, unit);
  if (g_trajectory != nullptr) {
    BenchSamples& samples =
        (*g_trajectory)[dataset + "/" + model + "/threads:" +
                        std::to_string(row.stats.num_threads)];
    samples.per_iter_ms.push_back(row.stats.wall_seconds / batch * 1e3);
    samples.counters["queries_per_s"] = qps;
    samples.counters["wall_s"] = row.stats.wall_seconds;
    samples.counters["cpu_sum_s"] = row.stats.cpu_query_seconds;
    samples.counters["peak_rss_bytes"] = double(row.peak_rss);
  }
}

void RunDataset(const DatasetSpec& spec) {
  Graph graph = MustBuildDataset(spec);
  const size_t batch = QuickMode() ? 8 : 32;
  std::vector<NodeId> queries =
      GenerateQuerySet(graph, batch, spec.seed ^ 0x5eedu);

  SimPushOptions options;
  options.epsilon = 0.02;
  options.walk_budget_cap = 30000;

  std::printf("\n-- %s: batch of %zu single-source queries --\n",
              spec.name.c_str(), queries.size());
  std::printf("%-14s %-8s %11s %11s %14s %9s %12s %10s\n", "model",
              "threads", "wall(s)", "queries/s", "q/s/worker", "speedup",
              "cpu-sum(s)", "peak-rss");

  size_t sink = 0;
  double engines_baseline = 0;
  double pooled_baseline = 0;
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    // Peak RSS is process-monotone: every reading is a floor inherited
    // from all earlier runs (including previous thread counts), not a
    // per-model measurement. Running smallest-footprint first within a
    // thread count keeps a model's reading from being inflated by a
    // LARGER model at the same count — enough to demonstrate the capped
    // pool's bound at the top thread count, not to detect small
    // pooled-model memory regressions.
    //
    // Half-capacity pool first: same thread count, scratch bounded at
    // O(threads/2 · n) — the memory/parallelism knob the
    // per-worker-engine design cannot express.
    RunRow capped = RunPooled(graph, options, queries, threads,
                              std::max<size_t>(1, threads / 2), &sink);
    RunRow pooled =
        RunPooled(graph, options, queries, threads, threads, &sink);
    if (pooled.stats.queries_ok != queries.size()) {
      std::fprintf(stderr, "FATAL: %zu queries failed\n",
                   pooled.stats.queries_failed);
      std::exit(1);
    }
    RunRow engines =
        RunEnginePerWorker(graph, options, queries, threads, &sink);
    if (engines.stats.queries_ok != queries.size()) {
      std::fprintf(stderr, "FATAL: engine/worker run lost queries\n");
      std::exit(1);
    }
    if (threads == 1) {
      engines_baseline = engines.stats.wall_seconds;
      pooled_baseline = pooled.stats.wall_seconds;
    }
    PrintRow("engine/worker", engines, queries.size(), engines_baseline,
             spec.name);
    PrintRow("pooled", pooled, queries.size(), pooled_baseline, spec.name);
    PrintRow("pooled-half", capped, queries.size(), pooled_baseline,
             spec.name);
    std::fflush(stdout);
  }
  if (sink == 0) std::printf("(unreachable sink: %zu)\n", sink);
}

}  // namespace
}  // namespace bench
}  // namespace simpush

int main(int argc, char** argv) {
  using namespace simpush;
  using namespace simpush::bench;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }
  std::map<std::string, BenchSamples> trajectory;
  if (!json_path.empty()) g_trajectory = &trajectory;
  std::printf("== Parallel batch throughput (extension bench) ==\n");
  std::printf(
      "(single-query latency is unchanged; this measures how an "
      "index-free method scales offline batch scoring, and that the "
      "pooled-workspace model costs nothing vs an engine per worker)\n");
  for (const DatasetSpec& spec : SmallDatasets()) {
    RunDataset(spec);
  }
  if (!json_path.empty()) {
    if (!WriteTrajectoryJson(json_path, "bench_parallel", trajectory)) {
      return 1;
    }
    std::printf("trajectory written to %s\n", json_path.c_str());
  }
  return 0;
}
