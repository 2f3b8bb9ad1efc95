// bench_e2e — end-to-end serving benchmark for simpush_serve.
//
// Boots the real serving stack in-process (stack.h), drives it over
// loopback with seeded closed-loop traffic (traffic.h), checks the
// answers (checks.h) and prints every metric as `name value unit`,
// then one JSON result line:
//
//   bench_e2e --workload NAME --seed N --seconds S --trace 0|1
//             [--data-dir DIR] [--out-dir DIR] [--git-sha SHA]
//
// Phases of one run, in order:
//   pre-flight   exact-oracle accuracy gate on a 1 000-node graph
//   boot         load → register → start → first 200; this stack serves
//   warm-up      3 s of the workload's traffic, not measured
//   window       S × the workload's window scale (traffic.h), measured
//   gates        replays (and the churn mirror), after the window
//   trace only   stage-split replays and layer probes (layers.h)
//   setup        full teardown, then more boots until ≥3 boots and ≥3 s
//                (max 15); setup_s is the median boot
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same
// traffic with every other request traced and reports the per-layer
// metrics. Each run also writes a JSON record with host provenance to
// --out-dir (bench/e2e/compare.py reads those), and trace runs write
// their spans there too. Run it through bench/e2e/run.sh, which builds
// it first.

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "checks.h"
#include "common/memory.h"
#include "common/rng.h"
#include "graph/graph_io.h"
#include "inputs.h"
#include "layers.h"
#include "metrics.h"
#include "serve/json.h"
#include "stack.h"
#include "traffic.h"

namespace simpush {
namespace bench_e2e {
namespace {

constexpr int kMinSetupReps = 3;
constexpr int kMaxSetupReps = 15;
constexpr double kMinSetupSeconds = 3.0;
constexpr double kTailQuantile = 0.90;
constexpr double kPreflightTolerance = 1.05;  // × ε, as regression_test.
// The watchdog allows warm-up + window + this much for input generation,
// the pre-flight, boots, gates and trace probes (under 15 s in a run).
constexpr double kWatchdogMarginSeconds = 120;
constexpr uint64_t kUpdateStream = 4 << 20;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 20;
  bool trace = false;
  std::string data_dir = "build-bench/e2e-data";
  std::string out_dir = "build-bench/e2e-out";
  std::string git_sha = "unknown";
};

int Usage() {
  std::fprintf(stderr,
               "usage: bench_e2e --workload NAME --seed N --seconds S "
               "--trace 0|1 [--data-dir DIR] [--out-dir DIR] "
               "[--git-sha SHA]\nworkloads:");
  for (const WorkloadSpec& spec : kWorkloads) {
    std::fprintf(stderr, " %.*s", static_cast<int>(spec.name.size()),
                 spec.name.data());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = static_cast<int>(std::strtol(value.c_str(), &end, 10));
      if (value.empty() || *end != '\0' || args->seconds < 1) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--data-dir") {
      args->data_dir = value;
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else if (flag == "--git-sha") {
      args->git_sha = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && FindWorkload(args->workload) != nullptr;
}

// Ends the process if a run hangs, so it never outlives its budget.
class Watchdog {
 public:
  explicit Watchdog(int seconds)
      : thread_([this, seconds] {
          MutexLock lock(&mu_);
          const auto deadline = Clock::now() + std::chrono::seconds(seconds);
          while (!done_) {
            if (Clock::now() >= deadline) {
              std::fprintf(stderr, "bench_e2e: watchdog expired after %d s\n",
                           seconds);
              std::_Exit(3);
            }
            cv_.WaitFor(mu_, std::chrono::milliseconds(200));
          }
        }) {}
  ~Watchdog() {
    {
      MutexLock lock(&mu_);
      done_ = true;
    }
    cv_.NotifyAll();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  Mutex mu_;
  CondVar cv_;
  bool done_ SIMPUSH_GUARDED_BY(mu_) = false;
  std::thread thread_;
};

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

// Host-wide CPU ticks from /proc/stat: {steal, total}. Steal is time
// the hypervisor ran another guest on one of this machine's vCPUs; it
// is the main source of run-to-run noise on shared hosts.
std::pair<double, double> HostTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double value = 0, total = 0, steal = 0;
  in >> cpu;
  for (int field = 0; field < 8 && in >> value; ++field) {
    total += value;
    if (field == 7) steal = value;
  }
  return {steal, total};
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

// The provenance every record carries.
void WriteHost(serve::JsonWriter* writer, const std::string& git_sha) {
  cpu_set_t affinity;
  CPU_ZERO(&affinity);
  const bool have_affinity =
      sched_getaffinity(0, sizeof(affinity), &affinity) == 0;
  writer->BeginObject();
  writer->Key("nproc");
  writer->Uint(static_cast<uint64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
  writer->Key("affinity_cpus");
  writer->Uint(have_affinity ? static_cast<uint64_t>(CPU_COUNT(&affinity)) : 0);
  writer->Key("cpu_model");
  writer->String(CpuModel());
  writer->Key("compiler");
  writer->String(Compiler());
  writer->Key("cxx_flags");
  writer->String(BENCH_E2E_CXX_FLAGS);
  writer->Key("build_type");
  writer->String(BENCH_E2E_BUILD_TYPE);
  writer->Key("git_sha");
  writer->String(git_sha);
  writer->EndObject();
}

// Adds boots, each torn down fully before the next, until both floors
// are met. Runs after the serving stack is gone, so no boot's leftovers
// count toward the window's peak RSS.
Status RepeatBoots(const std::string& graph_path, Tracer* tracer,
                   std::vector<BootTiming>* boots) {
  double total_s = 0;
  for (const BootTiming& boot : *boots) total_s += boot.total_s;
  while (static_cast<int>(boots->size()) < kMaxSetupReps &&
         (static_cast<int>(boots->size()) < kMinSetupReps ||
          total_s < kMinSetupSeconds)) {
    BootTiming timing;
    auto booted = ServingStack::Boot(graph_path, tracer, &timing);
    if (!booted.ok()) return booted.status();
    boots->push_back(timing);
    total_s += timing.total_s;
  }
  return Status::OK();
}

int Run(const Args& args) {
  const WorkloadSpec& spec = *FindWorkload(args.workload);
  const double window_s = args.seconds * spec.window_scale;
  const Watchdog watchdog(static_cast<int>(
      std::ceil(kWarmupSeconds + window_s + kWatchdogMarginSeconds)));
  const Clock::time_point run_start = Clock::now();
  auto fail = [](const char* what, const Status& status) {
    std::fprintf(stderr, "bench_e2e: %s: %s\n", what,
                 status.ToString().c_str());
    return 1;
  };

  // --- Inputs and the pre-flight gate (untimed). ---
  const auto graph_files = EnsureGraphFiles(*spec.graph, args.data_dir);
  if (!graph_files.ok()) return fail("graph input", graph_files.status());
  const std::string& graph_path = graph_files->text;
  const auto digest = FileDigest(graph_path);
  if (!digest.ok()) return fail("graph digest", digest.status());
  const Clock::time_point preflight_start = Clock::now();
  const auto preflight_error = PreflightMaxError(args.seed, args.data_dir);
  if (!preflight_error.ok()) return fail("pre-flight", preflight_error.status());
  const double preflight_s = SecondsSince(preflight_start);
  const bool preflight_ok =
      *preflight_error <= kPreflightTolerance * EngineOptions().epsilon;

  // --- Setup: the first boot serves; RepeatBoots adds the rest later. ---
  std::unique_ptr<Tracer> tracer =
      args.trace ? std::make_unique<Tracer>() : nullptr;
  WindowRecord window;
  window.spec = &spec;
  window.seed = args.seed;
  std::vector<BootTiming> boots(1);
  auto booted = ServingStack::Boot(graph_path, tracer.get(), &boots[0]);
  if (!booted.ok()) return fail("boot", booted.status());
  std::unique_ptr<ServingStack> stack = std::move(booted).value();
  serve::GraphRegistry& registry = stack->registry();

  NodeId num_nodes = 0;
  EdgeId num_edges = 0;
  std::vector<std::vector<EdgeUpdate>> batches;
  {
    auto lease = registry.Lease(kTenant);
    if (!lease.ok()) return fail("lease", lease.status());
    const Graph& graph = (*lease)->graph();
    num_nodes = graph.num_nodes();
    num_edges = graph.num_edges();
    if (spec.churn) {
      const size_t count = static_cast<size_t>(
          (kWarmupSeconds + window_s) * 1000 / kPublishPeriodMs) + 2;
      batches = MakeUpdateBatches(graph, count,
                                  DeriveStreamSeed(args.seed, kUpdateStream));
    }
  }

  // --- Warm-up and the measured window. ---
  LoadGenerator load(spec, args.seed, num_nodes, stack->port(), args.trace,
                     std::move(batches), args.trace ? &registry : nullptr);
  const Clock::time_point window_start =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(kWarmupSeconds));
  const Clock::time_point window_end =
      window_start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(window_s));
  load.Start(window_start, window_end);
  std::this_thread::sleep_until(window_start);
  const std::pair<double, double> ticks_start = HostTicks();
  const double cpu_start = ProcessCpuSeconds();
  const double generator_cpu_start = load.ThreadCpuSeconds();
  const auto stats_start = registry.Stats(kTenant);
  const uint64_t rejected_start = stack->server().counters().rejected_503;
  window.live_generations_max = registry.live_generations();
  while (args.trace && Clock::now() < window_end) {
    window.live_generations_max =
        std::max(window.live_generations_max, registry.live_generations());
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  std::this_thread::sleep_until(window_end);
  const double cpu_end = ProcessCpuSeconds();
  const double generator_cpu_end = load.ThreadCpuSeconds();
  const std::pair<double, double> ticks_end = HostTicks();
  const auto stats_end = registry.Stats(kTenant);
  const uint64_t rejected_end = stack->server().counters().rejected_503;
  // Read before any post-window check allocates.
  const double peak_rss_mb =
      static_cast<double>(PeakRssBytes()) / (1024.0 * 1024.0);
  load.Join();
  if (!stats_start.ok()) return fail("tenant stats", stats_start.status());
  if (!stats_end.ok()) return fail("tenant stats", stats_end.status());
  window.stats_start = *stats_start;
  window.stats_end = *stats_end;
  window.rejected_503 = rejected_end - rejected_start;
  window.window_start_ns = ToNs(window_start);

  std::vector<double> latencies;
  uint64_t hits = 0, reads_attempted = 0, reads_failed = 0, reads_503 = 0;
  std::vector<KeptResponse> kept;
  for (const ClientStats& stats : load.clients()) {
    latencies.insert(latencies.end(), stats.latency_ms.begin(),
                     stats.latency_ms.end());
    window.completed += stats.completed_in_window;
    hits += stats.hits_in_window;
    reads_attempted += stats.attempted;
    reads_failed += stats.failed;
    reads_503 += stats.rejected_503;
    kept.insert(kept.end(), stats.kept.begin(), stats.kept.end());
    for (const NodeId node : stats.miss_nodes) {
      if (window.miss_nodes.size() < kStageReplayNodes &&
          std::find(window.miss_nodes.begin(), window.miss_nodes.end(),
                    node) == window.miss_nodes.end()) {
        window.miss_nodes.push_back(node);
      }
    }
  }
  std::sort(latencies.begin(), latencies.end());
  const WriterStats& writer = load.writer();

  std::filesystem::create_directories(args.out_dir);
  const std::string stem = args.out_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed);

  // --- Gates 1 and 3, then the layer metrics, on the serving stack. ---
  const Clock::time_point gates_start = Clock::now();
  std::vector<ReplayJob> jobs;
  if (const Status parsed = ParseKept(kept, &jobs); !parsed.ok()) {
    return fail("parse kept responses", parsed);
  }
  StatusOr<ReplayCheck> check = Status::Internal("unset");
  std::vector<Metric> layers;
  std::vector<Metric> trace_diagnostics;
  double gates_s = 0;
  {
    auto lease = registry.Lease(kTenant);
    if (!lease.ok()) return fail("lease", lease.status());
    const serve::GraphGeneration& serving = **lease;
    if (spec.churn) {
      // Generation 1 is gone by now; reload it, untimed, from the
      // binary copy of the input.
      auto initial = LoadGraphAnyFormat(graph_files->binary);
      if (!initial.ok()) return fail("reload graph", initial.status());
      check = CheckChurn(*initial, serving.graph(), load.batches(),
                         writer.accepted, jobs);
    } else {
      check = CheckStatic(serving.graph(), serving.id(), jobs);
    }
    if (!check.ok()) return fail("replay gate", check.status());
    gates_s = SecondsSince(gates_start);
    if (args.trace) {
      auto layer_metrics =
          LayerMetrics(window, load, tracer->Take(), stack.get(), serving,
                       stem + "-spans.json", &trace_diagnostics);
      if (!layer_metrics.ok()) {
        return fail("layer metrics", layer_metrics.status());
      }
      layers = *std::move(layer_metrics);
    }
  }
  if (check->checked < kReplayNodes && check->detail.empty()) {
    check->detail = "the window answered only " +
                    std::to_string(check->checked) + " of the " +
                    std::to_string(kReplayNodes) + " node results to replay";
  }
  const bool replay_ok =
      check->checked >= kReplayNodes && check->mismatched == 0;
  const bool correct = preflight_ok && replay_ok && check->csr_identical;

  // --- The remaining setup boots, after a full teardown. ---
  stack.reset();
  if (const Status booted_again =
          RepeatBoots(graph_path, tracer.get(), &boots);
      !booted_again.ok()) {
    return fail("setup boots", booted_again);
  }
  std::vector<double> setup_s, load_ms, add_ms;
  for (const BootTiming& boot : boots) {
    setup_s.push_back(boot.total_s);
    load_ms.push_back(boot.load_ms);
    add_ms.push_back(boot.add_ms);
  }

  // --- Metrics. ---
  const double completed = static_cast<double>(window.completed);
  const double server_cpu_s =
      (cpu_end - cpu_start) - (generator_cpu_end - generator_cpu_start);
  const std::vector<Metric> end_to_end = {
      {"setup_s", Median(setup_s), "s"},
      {"lat_p50_ms", Quantile(latencies, 0.50), "ms"},
      {"lat_tail_ms", Quantile(latencies, kTailQuantile), "ms"},
      {"throughput_qps", completed / window_s, "req/s"},
      {"cpu_ms_per_req", 1e3 * Ratio(server_cpu_s, completed), "ms"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
  };
  uint64_t publishes_in_window = 0;
  for (const Publish& publish : writer.accepted) {
    publishes_in_window += publish.in_window ? 1 : 0;
  }
  const double samples = static_cast<double>(latencies.size());
  std::vector<Metric> diagnostics = {
      {"host_steal_pct",
       100.0 * Ratio(ticks_end.first - ticks_start.first,
                     ticks_end.second - ticks_start.second), "%"},
      {"lat_p99_ms", Quantile(latencies, 0.99), "ms"},
      {"samples", samples, "count"},
      {"samples_beyond_tail",
       samples - std::floor(kTailQuantile * samples), "count"},
      {"hit_ratio_client", Ratio(static_cast<double>(hits), samples), "ratio"},
      {"setup_reps", static_cast<double>(boots.size()), "count"},
      {"setup_min_s", *std::min_element(setup_s.begin(), setup_s.end()), "s"},
      {"setup_max_s", *std::max_element(setup_s.begin(), setup_s.end()), "s"},
      {"reads_attempted", static_cast<double>(reads_attempted), "count"},
      {"reads_failed", static_cast<double>(reads_failed), "count"},
      {"reads_503", static_cast<double>(reads_503), "count"},
      {"writes_attempted", static_cast<double>(writer.attempted), "count"},
      {"writes_failed", static_cast<double>(writer.failed), "count"},
      {"writes_503", static_cast<double>(writer.rejected_503), "count"},
      {"publishes_in_window", static_cast<double>(publishes_in_window),
       "count"},
      {"writer_max_late_ms", writer.max_late_ms, "ms"},
      {"preflight_max_error", *preflight_error, "abs"},
      {"replay_checked", static_cast<double>(check->checked), "count"},
      {"replay_mismatched", static_cast<double>(check->mismatched), "count"},
      {"replay_generations", static_cast<double>(check->generations),
       "count"},
      {"window_s", window_s, "s"},
      {"preflight_s", preflight_s, "s"},
      {"gates_s", gates_s, "s"},
  };
  std::vector<Metric> metrics;
  if (args.trace) {
    // The traced run's end-to-end numbers are only diagnostics: the
    // untraced run reports them.
    diagnostics.insert(diagnostics.end(), end_to_end.begin(),
                       end_to_end.end());
    diagnostics.insert(diagnostics.end(), trace_diagnostics.begin(),
                       trace_diagnostics.end());
    metrics = {{"graph.load_ms", Median(load_ms), "ms"},
               {"registry.add_ms", Median(add_ms), "ms"}};
    metrics.insert(metrics.end(), layers.begin(), layers.end());
  } else {
    metrics = end_to_end;
  }
  diagnostics.push_back({"run_s", SecondsSince(run_start), "s"});

  // --- Report. ---
  const uint64_t attempted = reads_attempted + writer.attempted;
  const uint64_t failed = reads_failed + writer.failed;
  for (const Metric& metric : metrics) {
    std::printf("%s %.9g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  for (const Metric& metric : diagnostics) {
    std::printf("# %s %.9g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  if (!correct) {
    std::printf("# gate failed: preflight=%s replay=%s csr=%s %s\n",
                preflight_ok ? "ok" : "FAIL", replay_ok ? "ok" : "FAIL",
                check->csr_identical ? "ok" : "FAIL", check->detail.c_str());
  }

  serve::JsonWriter record;
  record.BeginObject();
  record.Key("schema");
  record.Uint(1);
  record.Key("workload");
  record.String(args.workload);
  record.Key("seed");
  record.Uint(args.seed);
  record.Key("seconds");
  record.Uint(static_cast<uint64_t>(args.seconds));
  record.Key("window_s");
  record.Double(window_s);
  record.Key("trace");
  record.Bool(args.trace);
  record.Key("host");
  WriteHost(&record, args.git_sha);
  record.Key("graph");
  record.BeginObject();
  record.Key("name");
  record.String(spec.graph->name);
  record.Key("nodes");
  record.Uint(num_nodes);
  record.Key("edges");
  record.Uint(num_edges);
  record.Key("file_fnv1a");
  record.Uint(*digest);
  record.EndObject();
  record.Key("correct");
  record.Bool(correct);
  record.Key("attempted");
  record.Uint(attempted);
  record.Key("failed");
  record.Uint(failed);
  record.Key("metrics");
  WriteMetrics(&record, metrics);
  record.Key("diagnostics");
  WriteMetrics(&record, diagnostics);
  record.EndObject();
  std::ofstream(stem + "-trace" + (args.trace ? "1" : "0") + ".json")
      << record.str() << "\n";

  serve::JsonWriter result;
  result.BeginObject();
  result.Key("correct");
  result.Bool(correct);
  result.Key("attempted");
  result.Uint(attempted);
  result.Key("failed");
  result.Uint(failed);
  result.Key("metrics");
  WriteMetrics(&result, metrics);
  result.EndObject();
  std::printf("%s\n", result.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace bench_e2e
}  // namespace simpush

int main(int argc, char** argv) {
  simpush::bench_e2e::Args args;
  if (!simpush::bench_e2e::ParseArgs(argc, argv, &args)) {
    return simpush::bench_e2e::Usage();
  }
  return simpush::bench_e2e::Run(args);
}
