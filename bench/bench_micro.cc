// Component micro-benchmarks (google-benchmark): walk sampling, push
// kernels, graph construction and loading, and the three SimPush stages in
// isolation. These quantify the constants behind the Table 1/3
// complexities.

#include <benchmark/benchmark.h>
#include <malloc.h>

#include <cmath>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "bench_json.h"
#include "common/memory.h"
#include "common/rng.h"
#include "graph/generators.h"
#include "graph/graph_io.h"
#include "serve/result_cache.h"
#include "simpush/single_pair.h"
#include "simpush/hitting.h"
#include "simpush/last_meeting.h"
#include "simpush/reverse_push.h"
#include "simpush/simpush.h"
#include "simpush/source_push.h"
#include "simpush/topk.h"
#include "simpush/workspace.h"
#include "walk/walk_batch.h"
#include "walk/walker.h"

namespace {

using namespace simpush;

// MiB the glibc heap holds for the program: in-use arena chunks plus
// mmap'd blocks (mallinfo2's uordblks + hblkhd). A bench reads it before
// building its workspace or engine and after its timed loop; the
// difference, "held_mb", is the scratch the loop left allocated.
double HeapHeldMb() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / (1024.0 * 1024.0);
}

const Graph& BenchGraph() {
  static const Graph graph = [] {
    auto g = GenerateChungLu(20000, 240000, 2.2, 4096);
    if (!g.ok()) std::abort();
    return std::move(g).value();
  }();
  return graph;
}

void BM_SqrtCWalk(benchmark::State& state) {
  const Graph& g = BenchGraph();
  Walker walker(g, std::sqrt(0.6));
  Rng rng(1);
  uint64_t steps = 0;
  for (auto _ : state) {
    Walk walk = walker.SampleWalk(
        static_cast<NodeId>(rng.NextBounded(g.num_nodes())), &rng);
    steps += walk.length();
    benchmark::DoNotOptimize(walk);
  }
  state.counters["steps/walk"] =
      benchmark::Counter(double(steps) / state.iterations());
}
BENCHMARK(BM_SqrtCWalk);

// Walk-kernel comparison: the serial per-walk loop vs the batched SoA
// kernel, on identical counter streams (so both do the same logical
// work — only the schedule differs). The batched variant sweeps the
// wave width; the knee of that curve justifies the default W.
constexpr uint64_t kKernelWalksPerIter = 20000;

void BM_WalkKernelSerial(benchmark::State& state) {
  const Graph& g = BenchGraph();
  const Walker walker(g, std::sqrt(0.6));
  const DerivedParams params = ComputeDerivedParams(SimPushOptions{});
  uint64_t sink = 0;
  NodeId u = 0;
  for (auto _ : state) {
    for (uint64_t i = 0; i < kKernelWalksPerIter; ++i) {
      Rng rng = Rng::ForWalk(/*seed=*/42, u, i);
      walker.SampleWalkVisit(
          u, &rng,
          [&sink](uint32_t level, NodeId node) { sink += node + level; },
          params.l_star);
    }
    u = (u + 37) % g.num_nodes();
  }
  benchmark::DoNotOptimize(sink);
  state.counters["walks/s"] = benchmark::Counter(
      double(kKernelWalksPerIter) * state.iterations(),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_WalkKernelSerial)->Name("BM_WalkKernel/serial");

void BM_WalkKernelBatched(benchmark::State& state) {
  const Graph& g = BenchGraph();
  const Walker walker(g, std::sqrt(0.6));
  const DerivedParams params = ComputeDerivedParams(SimPushOptions{});
  const uint32_t wave = static_cast<uint32_t>(state.range(0));
  uint64_t sink = 0;
  NodeId u = 0;
  for (auto _ : state) {
    RunWalkWaves(
        g, u, /*walk_seed=*/42, kKernelWalksPerIter, params.l_star,
        walker.inv_log_sqrt_c(),
        [&sink](uint32_t level, NodeId node) { sink += node + level; },
        /*cancel=*/nullptr, wave);
    u = (u + 37) % g.num_nodes();
  }
  benchmark::DoNotOptimize(sink);
  state.counters["walks/s"] = benchmark::Counter(
      double(kKernelWalksPerIter) * state.iterations(),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_WalkKernelBatched)
    ->Name("BM_WalkKernel/batched")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Arg(64)
    ->Arg(128)
    ->Arg(256);

// The e2e benchmark's web graph: Chung-Lu n=200k, m=1.6M, gamma=2.2,
// seed 7. Its CSR outgrows L2, unlike BenchGraph()'s.
const Graph& WebGraph() {
  static const Graph graph = [] {
    auto g = GenerateChungLu(200000, 1600000, 2.2, 7);
    if (!g.ok()) std::abort();
    return std::move(g).value();
  }();
  return graph;
}

// Level detection alone (Algorithm 2 lines 1-8): the walks, their
// visit log and the counting pass, at eps=0.05 with the derived walk
// count (26 441), on a warm workspace. The argument is the wave width;
// every width cycles the same 64 sources. Reports ms per query and
// visits per query.
void BM_DetectMaxLevel(benchmark::State& state, const Graph& (*graph)()) {
  const Graph& g = graph();
  SimPushOptions o;
  o.epsilon = 0.05;
  const DerivedParams params = ComputeDerivedParams(o);
  const uint32_t wave = static_cast<uint32_t>(state.range(0));
  QueryWorkspace workspace;
  uint64_t visits = 0;
  uint64_t i = 0;
  for (auto _ : state) {
    const NodeId u = static_cast<NodeId>(i * 7919 % g.num_nodes());
    i = (i + 1) % 64;
    Rng rng(u);
    uint64_t walks = 0;
    benchmark::DoNotOptimize(DetectMaxLevel(g, u, params, &rng, &workspace,
                                            &walks, nullptr, wave));
    for (const auto& level : workspace.level_visits) visits += level.size();
  }
  state.counters["visits"] =
      benchmark::Counter(double(visits) / state.iterations());
}
BENCHMARK_CAPTURE(BM_DetectMaxLevel, bench_graph, &BenchGraph)
    ->Unit(benchmark::kMillisecond)
    ->Arg(64)
    ->Arg(256);
BENCHMARK_CAPTURE(BM_DetectMaxLevel, web, &WebGraph)
    ->Unit(benchmark::kMillisecond)
    ->Arg(32)
    ->Arg(64)
    ->Arg(128)
    ->Arg(256);

void BM_PairWalkMeeting(benchmark::State& state) {
  const Graph& g = BenchGraph();
  Walker walker(g, std::sqrt(0.6));
  Rng rng(2);
  for (auto _ : state) {
    const NodeId u = static_cast<NodeId>(rng.NextBounded(g.num_nodes()));
    const NodeId v = static_cast<NodeId>(rng.NextBounded(g.num_nodes()));
    benchmark::DoNotOptimize(walker.PairWalkMeets(u, v, &rng));
  }
}
BENCHMARK(BM_PairWalkMeeting);

void BM_GraphBuild(benchmark::State& state) {
  const NodeId n = static_cast<NodeId>(state.range(0));
  for (auto _ : state) {
    auto g = GenerateErdosRenyi(n, EdgeId(n) * 8, 99);
    benchmark::DoNotOptimize(g);
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_GraphBuild)->Range(1 << 10, 1 << 14)->Complexity();

// Text load of the e2e benchmark's web graph (Chung-Lu n=200 000,
// m=1.6M, gamma=2.2, seed 7), written once to the temp directory with
// SaveEdgeList and removed at exit. Reports bytes/s of edge-list text.
struct WebEdgeListFile {
  WebEdgeListFile()
      : path((std::filesystem::temp_directory_path() /
              "simpush_bench_web_edges.txt")
                 .string()) {
    auto graph = GenerateChungLu(200000, 1600000, 2.2, 7);
    if (!graph.ok() || !SaveEdgeList(*graph, path).ok()) std::abort();
    bytes = std::filesystem::file_size(path);
  }
  ~WebEdgeListFile() { std::filesystem::remove(path); }

  std::string path;
  uint64_t bytes = 0;
};

void BM_LoadEdgeList(benchmark::State& state) {
  static const WebEdgeListFile file;
  for (auto _ : state) {
    auto graph = LoadEdgeList(file.path);
    if (!graph.ok()) std::abort();
    benchmark::DoNotOptimize(graph);
  }
  state.SetBytesProcessed(static_cast<int64_t>(file.bytes) *
                          static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_LoadEdgeList)->Unit(benchmark::kMillisecond);

// Source-Push alone (Algorithm 2: level detection, then the level-wise
// propagation), on a warm workspace and G_u as a long-lived engine
// holds them, every iteration from the next source in steps of 37.
// Reports held_mb: the heap the workspace and G_u hold after the loop.
void RunSourcePushStage(benchmark::State& state, const Graph& g,
                        const SimPushOptions& o) {
  const DerivedParams params = ComputeDerivedParams(o);
  const double held_before = HeapHeldMb();
  Rng rng(3);
  QueryWorkspace workspace;
  SourceGraph gu;
  NodeId u = 0;
  for (auto _ : state) {
    auto status = SourcePushInto(g, u, o, params, &rng, &workspace, &gu,
                                 nullptr);
    benchmark::DoNotOptimize(status);
    benchmark::DoNotOptimize(gu);
    u = (u + 37) % g.num_nodes();
  }
  state.counters["held_mb"] = HeapHeldMb() - held_before;
}

// The bench graph at eps=0.02 with the walk count capped at 20 000.
void BM_SourcePushStage(benchmark::State& state) {
  SimPushOptions o;
  o.epsilon = 0.02;
  o.walk_budget_cap = 20000;
  RunSourcePushStage(state, BenchGraph(), o);
}
BENCHMARK(BM_SourcePushStage);

// `graph` at eps=0.05 with the derived walk count (26 441), as the e2e
// benchmark's web reads run it.
void BM_SourcePushStage(benchmark::State& state, const Graph& (*graph)()) {
  SimPushOptions o;
  o.epsilon = 0.05;
  RunSourcePushStage(state, graph(), o);
}
BENCHMARK_CAPTURE(BM_SourcePushStage, web, &WebGraph)
    ->Unit(benchmark::kMillisecond);

// Cycles 8 precomputed G_u: one source's levels would pin each level's
// pull/push choice, hiding the other direction's cost.
void BM_GammaStage(benchmark::State& state) {
  const Graph& g = BenchGraph();
  SimPushOptions o;
  o.epsilon = 0.02;
  o.walk_budget_cap = 20000;
  const DerivedParams params = ComputeDerivedParams(o);
  QueryWorkspace workspace;
  std::vector<SourceGraph> gus(8);
  NodeId u = 11;
  for (SourceGraph& gu : gus) {
    Rng rng(4);
    if (!SourcePushInto(g, u, o, params, &rng, &workspace, &gu, nullptr)
             .ok()) {
      std::abort();
    }
    u += 37;
  }
  HittingTable table;
  std::vector<double> gamma;
  size_t next = 0;
  for (auto _ : state) {
    const SourceGraph& gu = gus[next];
    next = (next + 1) % gus.size();
    if (!ComputeHittingTable(g, gu, params.sqrt_c, &workspace, &table).ok() ||
        !ComputeLastMeetingProbabilities(gu, table, &workspace, &gamma)
             .ok()) {
      std::abort();
    }
    benchmark::DoNotOptimize(gamma);
  }
}
BENCHMARK(BM_GammaStage);

void BM_ReversePushStage(benchmark::State& state) {
  const Graph& g = BenchGraph();
  SimPushOptions o;
  o.epsilon = 0.02;
  o.walk_budget_cap = 20000;
  const DerivedParams params = ComputeDerivedParams(o);
  Rng rng(5);
  QueryWorkspace workspace;
  SourceGraph gu;
  HittingTable table;
  std::vector<double> gamma;
  if (!SourcePushInto(g, 11, o, params, &rng, &workspace, &gu, nullptr).ok() ||
      !ComputeHittingTable(g, gu, params.sqrt_c, &workspace, &table).ok() ||
      !ComputeLastMeetingProbabilities(gu, table, &workspace, &gamma).ok()) {
    std::abort();
  }
  std::vector<double> scores(g.num_nodes(), 0.0);
  for (auto _ : state) {
    std::fill(scores.begin(), scores.end(), 0.0);
    (void)ReversePush(g, gu, gamma, params.sqrt_c, params.eps_h, &workspace,
                      &scores, nullptr);
    benchmark::DoNotOptimize(scores);
  }
}
BENCHMARK(BM_ReversePushStage);

void BM_FullQuery(benchmark::State& state) {
  const Graph& g = BenchGraph();
  SimPushOptions o;
  o.epsilon = 1.0 / double(state.range(0));
  o.walk_budget_cap = 20000;
  SimPushEngine engine(g, o);
  NodeId u = 0;
  for (auto _ : state) {
    auto r = engine.Query(u);
    benchmark::DoNotOptimize(r);
    u = (u + 101) % g.num_nodes();
  }
}
BENCHMARK(BM_FullQuery)->Arg(10)->Arg(20)->Arg(50)->Arg(100);

// Steady state vs. cold start, plus the zero-allocation claim.
//
// BM_QuerySteadyState reuses one engine and one result across queries —
// the serving hot path. After a warm-up pass the workspace has hit its
// high-water marks and QueryInto must not touch the heap at all; the
// "allocs/query" counter (counting operator new, linked into this
// binary only) proves it. BM_QueryColdEngine constructs the engine per
// query for contrast — the setup cost SimPush's realtime claim cannot
// afford. "held_mb" is the heap the engine and result hold after the
// timed loop.

void BM_QuerySteadyState(benchmark::State& state) {
  const Graph& g = BenchGraph();
  SimPushOptions o;
  o.epsilon = 0.02;
  o.walk_budget_cap = 20000;
  const double held_before = HeapHeldMb();
  SimPushEngine engine(g, o);
  SimPushResult result;
  // Warm-up: touch every query in the rotation once so all pooled
  // buffers reach their high-water sizes.
  const NodeId stride = 101;
  const int kRotation = 16;
  NodeId warm = 0;
  for (int i = 0; i < kRotation; ++i) {
    if (!engine.QueryInto(warm, &result).ok()) std::abort();
    warm = (warm + stride) % (stride * kRotation);
  }
  const AllocationStats before = GetAllocationStats();
  NodeId u = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.QueryInto(u, &result));
    benchmark::DoNotOptimize(result);
    u = (u + stride) % (stride * kRotation);
  }
  const AllocationStats after = GetAllocationStats();
  state.counters["allocs/query"] = benchmark::Counter(
      double(after.allocations - before.allocations) / state.iterations());
  state.counters["held_mb"] = HeapHeldMb() - held_before;
}
BENCHMARK(BM_QuerySteadyState);

void BM_QueryColdEngine(benchmark::State& state) {
  const Graph& g = BenchGraph();
  SimPushOptions o;
  o.epsilon = 0.02;
  o.walk_budget_cap = 20000;
  const AllocationStats before = GetAllocationStats();
  NodeId u = 0;
  for (auto _ : state) {
    SimPushEngine engine(g, o);
    auto r = engine.Query(u);
    benchmark::DoNotOptimize(r);
    u = (u + 101) % (101 * 16);
  }
  const AllocationStats after = GetAllocationStats();
  state.counters["allocs/query"] = benchmark::Counter(
      double(after.allocations - before.allocations) / state.iterations());
}
BENCHMARK(BM_QueryColdEngine);

// A cached answer from a warm 64 MiB cache, by request shape: arg 0 is
// a full-vector read (ResultCache::Get rebuilds all n scores) of full
// entries, arg k > 0 a top-k read (ResultCache::GetTopK into a warm
// buffer) of the ranked-only entries a top-k miss inserts. The graph
// and options are the e2e small workload's (Chung-Lu n=20 000,
// m=160 000, gamma=2.2, seed 7; eps=0.05, walk cap 100 000). 64 sources
// are computed and cached up front; the loop cycles through them.
// "allocs/hit" counts operator new calls per hit; "stored_frac" is the
// fraction of scores the entries store.
void BM_ResultCacheHit(benchmark::State& state) {
  static const Graph graph = [] {
    auto g = GenerateChungLu(20000, 160000, 2.2, 7);
    if (!g.ok()) std::abort();
    return std::move(g).value();
  }();
  SimPushOptions o;
  o.epsilon = 0.05;
  o.walk_budget_cap = 100000;
  SimPushEngine engine(graph, o);
  serve::ResultCacheConfig config;
  config.byte_budget = 64u << 20;
  serve::ResultCache cache(config);
  const uint64_t fp = serve::OptionsFingerprint(o);
  constexpr NodeId kSources = 64;
  constexpr NodeId kStride = 311;
  const size_t k = static_cast<size_t>(state.range(0));
  SimPushResult result;
  std::vector<TopKEntry> top;
  size_t stored = 0;
  for (NodeId i = 0; i < kSources; ++i) {
    const NodeId u = i * kStride % graph.num_nodes();
    if (!engine.QueryInto(u, &result).ok()) std::abort();
    if (k == 0) {
      if (!cache.Insert(u, fp, result) || !cache.Get(u, fp, &result)) {
        std::abort();
      }
      for (double score : result.scores) stored += score != 0.0;
    } else {
      SelectTopK(result.scores, serve::ResultCache::kRankedPrefix + 1, u,
                 &top);
      stored += std::min(top.size(), serve::ResultCache::kRankedPrefix);
      if (!cache.InsertRanked(u, fp, top, result.stats) ||
          !cache.GetTopK(u, fp, k, &top, &result.stats)) {
        std::abort();
      }
    }
  }
  top.reserve(k);  // Warm, as the service's per-thread buffer is.
  const AllocationStats before = GetAllocationStats();
  NodeId i = 0;
  for (auto _ : state) {
    const NodeId u = i * kStride % graph.num_nodes();
    const bool hit = k == 0 ? cache.Get(u, fp, &result)
                            : cache.GetTopK(u, fp, k, &top, &result.stats);
    if (!hit) std::abort();
    benchmark::DoNotOptimize(result);
    benchmark::DoNotOptimize(top);
    i = (i + 1) % kSources;
  }
  const AllocationStats after = GetAllocationStats();
  state.counters["allocs/hit"] = benchmark::Counter(
      double(after.allocations - before.allocations) / state.iterations());
  state.counters["stored_frac"] = benchmark::Counter(
      double(stored) / (double(kSources) * graph.num_nodes()));
}
BENCHMARK(BM_ResultCacheHit)->Arg(0)->Arg(10);


void BM_SinglePairSessionCreate(benchmark::State& state) {
  const Graph& g = BenchGraph();
  SimPushOptions options;
  options.epsilon = 0.02;
  options.walk_budget_cap = 10000;
  Rng rng(7);
  for (auto _ : state) {
    auto session = SinglePairSession::Create(
        g, static_cast<NodeId>(rng.NextBounded(g.num_nodes())), options);
    benchmark::DoNotOptimize(session);
  }
}
BENCHMARK(BM_SinglePairSessionCreate);

void BM_SinglePairEstimate(benchmark::State& state) {
  const Graph& g = BenchGraph();
  SimPushOptions options;
  options.epsilon = 0.02;
  options.walk_budget_cap = 10000;
  auto session = SinglePairSession::Create(g, 17, options);
  if (!session.ok()) std::abort();
  Rng rng(9);
  const uint64_t walks = static_cast<uint64_t>(state.range(0));
  for (auto _ : state) {
    auto estimate = session->Estimate(
        static_cast<NodeId>(rng.NextBounded(g.num_nodes())), walks);
    benchmark::DoNotOptimize(estimate);
  }
  state.counters["walks"] = double(walks);
}
BENCHMARK(BM_SinglePairEstimate)->Arg(1000)->Arg(10000);

// Console reporter that additionally captures every per-repetition run
// so --json can persist the trajectory (bench_json.h).
class TrajectoryReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration ||
          run.iterations == 0) {
        continue;
      }
      bench::BenchSamples& samples = results_[run.benchmark_name()];
      samples.per_iter_ms.push_back(run.real_accumulated_time /
                                    double(run.iterations) * 1e3);
      for (const auto& [name, counter] : run.counters) {
        samples.counters[name] = counter.value;
      }
    }
    benchmark::ConsoleReporter::ReportRuns(runs);
  }

  const std::map<std::string, bench::BenchSamples>& results() const {
    return results_;
  }

 private:
  std::map<std::string, bench::BenchSamples> results_;
};

}  // namespace

int main(int argc, char** argv) {
  // Peel off --json OUT before google-benchmark sees the flags (it
  // aborts on unknown ones). Everything else passes through, so the
  // usual --benchmark_filter/--benchmark_min_time still work.
  std::string json_path;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::string(argv[i]) == "--json" && i + 1 < argc) {
      json_path = argv[++i];
      continue;
    }
    args.push_back(argv[i]);
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }
  TrajectoryReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  if (!json_path.empty()) {
    if (!simpush::bench::WriteTrajectoryJson(
            json_path, "bench_micro", reporter.results(),
            {{"walk_kernel", simpush::WalkKernelConfigString()},
             {"graph", "chung-lu n=20000 m=240000"}})) {
      return 1;
    }
    std::printf("trajectory written to %s\n", json_path.c_str());
  }
  return 0;
}
