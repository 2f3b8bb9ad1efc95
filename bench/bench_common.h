// Shared utilities for the per-figure/table benchmark binaries.
//
// Each binary regenerates one table or figure of the paper (Figs. 4-6
// share one) on the synthetic stand-in datasets (eval/datasets.h).
// Output is printed as aligned text tables: one row per (dataset,
// method, setting), matching the series the paper plots.

#ifndef SIMPUSH_BENCH_BENCH_COMMON_H_
#define SIMPUSH_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "baselines/prsim.h"
#include "common/memory.h"
#include "common/timer.h"
#include "eval/datasets.h"
#include "eval/ground_truth.h"
#include "eval/harness.h"
#include "graph/graph.h"

namespace simpush {
namespace bench {

/// Scale knob: SIMPUSH_BENCH_SCALE=quick shrinks query counts and MC
/// sampling for smoke runs; default is the full configuration.
inline bool QuickMode() {
  const char* env = std::getenv("SIMPUSH_BENCH_SCALE");
  return env != nullptr && std::string(env) == "quick";
}

/// Standard harness options used by the figure benches.
inline HarnessOptions FigureHarnessOptions() {
  HarnessOptions options;
  options.k = 50;
  options.num_queries = QuickMode() ? 2 : 3;
  options.query_seed = 4242;
  options.truth.k = 50;
  options.truth.exact_node_limit = 3000;
  options.truth.mc_samples_per_pair = QuickMode() ? 10000 : 50000;
  return options;
}

/// Sweep used on the large stand-ins: all SimPush settings plus the
/// three coarsest settings of the scalable competitors (the paper
/// likewise drops settings that exceed the time/memory budget at
/// scale). PRSim's η sampling is reduced to 200 paired walks per node —
/// at 10⁵+ nodes the η MC is otherwise the single largest wall-time
/// item, and 200 samples keep its error contribution below the pooled
/// ground truth's noise floor.
inline std::vector<MethodSetting> LargeGraphSweep() {
  std::vector<MethodSetting> sweep = PaperParameterSweep({"SimPush"});
  {
    auto settings = PaperParameterSweep({"ProbeSim"});
    sweep.insert(sweep.end(), settings.begin(), settings.begin() + 3);
  }
  for (double eps : {0.5, 0.2, 0.1}) {
    char label[32];
    std::snprintf(label, sizeof(label), "eps=%g", eps);
    sweep.push_back({"PRSim", label, [eps](const Graph& g) {
                       PRSimOptions o;
                       o.epsilon = eps;
                       o.eta_samples = 200;
                       return std::make_unique<PRSim>(g, o);
                     }});
  }
  return sweep;
}

/// Builds a dataset or dies with a message (benches are top-level
/// binaries; failure to build a registered dataset is fatal).
inline Graph MustBuildDataset(const DatasetSpec& spec) {
  Timer timer;
  auto graph = BuildDataset(spec);
  if (!graph.ok()) {
    std::fprintf(stderr, "FATAL: building %s failed: %s\n",
                 spec.name.c_str(), graph.status().ToString().c_str());
    std::exit(1);
  }
  std::printf("[build] %-16s n=%-8u m=%-9llu (%.1fs)\n", spec.name.c_str(),
              graph->num_nodes(),
              static_cast<unsigned long long>(graph->num_edges()),
              timer.ElapsedSeconds());
  return std::move(graph).value();
}

/// Estimated index footprint for methods with predictable index sizes;
/// used to skip settings that would exceed the memory budget, mirroring
/// the paper's "exclude a parameter if it runs out of memory" rule.
inline bool SettingFitsMemory(const std::string& method,
                              const std::string& setting, NodeId n) {
  const size_t budget_bytes = 1200ull << 20;  // 1.2 GB
  if (method == "READS") {
    unsigned r = 0, t = 0;
    if (std::sscanf(setting.c_str(), "r=%u,t=%u", &r, &t) == 2) {
      // walk_steps (4 bytes/slot) + inverted map (~12 bytes/visit).
      const size_t bytes = size_t(n) * r * t * 16ull;
      return bytes <= budget_bytes;
    }
  }
  if (method == "TSF") {
    unsigned rg = 0, rq = 0;
    if (std::sscanf(setting.c_str(), "Rg=%u,Rq=%u", &rg, &rq) == 2) {
      const size_t bytes = size_t(n) * rg * 8ull;
      return bytes <= budget_bytes;
    }
  }
  return true;
}

/// Runs a set of method settings over one dataset: each setting is
/// evaluated once and printed as one row carrying every figure column —
/// query time and prepare time (Figs. 4-5's x axis), AvgError@50
/// (Figs. 4, 6), Precision@50 (Fig. 5), the method's index alone, the
/// accounted footprint (graph + index + one score vector; Fig. 6's
/// apples-to-apples memory) and the process peak RSS, which mirrors the
/// paper's ru_maxrss but is cumulative over the process, so it only
/// grows when a method's footprint exceeds everything before it.
inline void RunFigureForDataset(const DatasetSpec& spec,
                                const std::vector<MethodSetting>& sweep) {
  Graph graph = MustBuildDataset(spec);
  HarnessOptions options = FigureHarnessOptions();
  auto queries = GenerateQuerySet(graph, options.num_queries,
                                  options.query_seed ^ spec.seed);

  // Ground-truth pool: a fine SimPush setting plus a coarse ProbeSim
  // setting so the pool is not single-method biased (paper §5.1 pools
  // every algorithm's top-k; two diverse members approximate that at a
  // fraction of the cost).
  auto simpush_settings = PaperParameterSweep({"SimPush"});
  auto probesim_settings = PaperParameterSweep({"ProbeSim"});
  std::vector<MethodSetting> pool_methods{simpush_settings[4],
                                          probesim_settings[2]};
  auto truths = BuildGroundTruths(graph, queries, pool_methods, options);
  if (!truths.ok()) {
    std::fprintf(stderr, "FATAL: ground truth for %s failed: %s\n",
                 spec.name.c_str(), truths.status().ToString().c_str());
    std::exit(1);
  }

  std::printf("\n-- %s (stand-in for %s; %s) --\n", spec.name.c_str(),
              spec.paper_name.c_str(),
              spec.undirected ? "undirected" : "directed");
  std::printf("%-10s %-16s %12s %12s %12s %10s %12s %13s %12s\n", "method",
              "setting", "query(ms)", "prepare(s)", "AvgErr@50", "Prec@50",
              "index(MB)", "accounted(MB)", "peakRSS(MB)");

  constexpr double kMiB = 1 << 20;
  for (const MethodSetting& setting : sweep) {
    if (!SettingFitsMemory(setting.method, setting.setting,
                           graph.num_nodes())) {
      std::printf("%-10s %-16s %12s\n", setting.method.c_str(),
                  setting.setting.c_str(), "skipped(mem)");
      continue;
    }
    auto row = EvaluateMethod(graph, setting, queries, *truths);
    if (!row.ok()) {
      std::printf("%-10s %-16s %12s\n", setting.method.c_str(),
                  setting.setting.c_str(), "error");
      continue;
    }
    std::printf("%-10s %-16s %12.3f %12.3f %12.6f %10.4f %12.2f %13.2f "
                "%12.2f\n",
                row->method.c_str(), row->setting.c_str(),
                row->avg_query_seconds * 1e3, row->prepare_seconds,
                row->avg_error_at_k, row->avg_precision_at_k,
                row->index_bytes / kMiB, row->peak_memory_bytes / kMiB,
                PeakRssBytes() / kMiB);
    std::fflush(stdout);
  }
}

}  // namespace bench
}  // namespace simpush

#endif  // SIMPUSH_BENCH_BENCH_COMMON_H_
