// Dynamic-update bench — the paper's motivating scenario (§1): the
// graph "can change frequently and unpredictably", so realtime query
// processing "must not rely on heavy pre-computations whose results are
// expensive to update".
//
// Workload: interleave batches of edge updates with single-source
// queries. After each update batch every method answers the same query:
//   * SimPush      — snapshots the dynamic graph (O(m) CSR rebuild,
//                    charged to it) and queries; nothing else to redo.
//   * PRSim/SLING  — must rebuild their index over the new snapshot
//                    before the query (the paper's point: infeasible
//                    per update at scale).
//   * READS-dyn    — repairs its walk index incrementally (the READS
//                    paper's dynamic maintenance) and queries: the
//                    middle ground between rebuild and index-free.
//   * stale-SLING  — answers from the pre-update index without
//                    rebuilding; we report how its error decays as the
//                    graph drifts, quantifying what "serving stale
//                    indexes" costs in accuracy.
//
// Reproduces the conclusion behind Fig. 4/§5.2's prepare-time framing:
// index-based methods' end-to-end latency under updates is dominated by
// rebuilds, while SimPush's stays flat.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <set>

#include "baselines/prsim.h"
#include "baselines/reads.h"
#include "baselines/sling.h"
#include "bench_common.h"
#include "bench_json.h"
#include "common/timer.h"
#include "eval/ground_truth.h"
#include "eval/metrics.h"
#include "graph/dynamic_graph.h"
#include "graph/generators.h"
#include "simpush/simpush.h"

namespace simpush {
namespace bench {
namespace {

struct RoundResult {
  double simpush_ms = 0;       // snapshot + query
  double prsim_ms = 0;         // rebuild + query
  double sling_ms = 0;         // rebuild + query
  double stale_precision = 1;  // stale SLING vs fresh truth
};

void RunDataset(const DatasetSpec& spec) {
  Graph base = MustBuildDataset(spec);
  const NodeId query = static_cast<NodeId>(base.num_nodes() / 2);
  const size_t updates_per_round = QuickMode() ? 200 : 1000;
  const int rounds = QuickMode() ? 3 : 5;

  DynamicGraph dynamic = DynamicGraph::FromGraph(base);

  SimPushOptions sp_options;
  sp_options.epsilon = 0.02;
  sp_options.walk_budget_cap = 30000;

  SlingOptions sling_options;
  sling_options.epsilon = 0.05;
  sling_options.eta_samples = QuickMode() ? 50 : 200;

  PRSimOptions prsim_options;
  prsim_options.epsilon = 0.05;
  prsim_options.eta_samples = QuickMode() ? 50 : 200;

  // Stale index built once on the pre-update graph and never refreshed.
  Sling stale_sling(base, sling_options);
  if (!stale_sling.Prepare().ok()) {
    std::fprintf(stderr, "FATAL: stale SLING prepare failed\n");
    std::exit(1);
  }

  // READS index maintained incrementally across rounds.
  ReadsOptions reads_options;
  reads_options.num_walks = QuickMode() ? 30 : 100;
  reads_options.max_depth = 8;
  Reads reads_dyn(base, reads_options);
  if (!reads_dyn.Prepare().ok()) {
    std::fprintf(stderr, "FATAL: READS prepare failed\n");
    std::exit(1);
  }

  std::printf(
      "\n-- %s: %zu updates/round (20%% deletions), query node %u --\n",
      spec.name.c_str(), updates_per_round, query);
  std::printf("%-6s %14s %16s %16s %16s %18s\n", "round", "SimPush(ms)",
              "PRSim rebuild+q", "SLING rebuild+q", "READS repair+q",
              "stale-SLING P@50");

  for (int round = 1; round <= rounds; ++round) {
    auto snapshot_before = dynamic.Snapshot();
    if (!snapshot_before.ok()) std::exit(1);
    auto stream = GenerateUpdateStream(*snapshot_before, updates_per_round,
                                       /*delete_fraction=*/0.2,
                                       spec.seed + round);
    if (!dynamic.Apply(stream).ok()) {
      std::fprintf(stderr, "FATAL: update stream failed to apply\n");
      std::exit(1);
    }

    RoundResult result;

    // SimPush: snapshot (its entire "rebuild") + query.
    Timer timer;
    auto fresh = dynamic.Snapshot();
    if (!fresh.ok()) std::exit(1);
    SimPushEngine engine(*fresh, sp_options);
    auto sp_result = engine.Query(query);
    if (!sp_result.ok()) std::exit(1);
    result.simpush_ms = timer.ElapsedSeconds() * 1e3;

    // PRSim: index rebuild + query on the fresh snapshot.
    timer.Restart();
    PRSim prsim(*fresh, prsim_options);
    auto prsim_result =
        prsim.Prepare().ok() ? prsim.Query(query)
                             : StatusOr<std::vector<double>>(
                                   Status::Internal("prepare failed"));
    if (!prsim_result.ok()) std::exit(1);
    result.prsim_ms = timer.ElapsedSeconds() * 1e3;

    // SLING: index rebuild + query.
    timer.Restart();
    Sling sling(*fresh, sling_options);
    auto sling_result =
        sling.Prepare().ok() ? sling.Query(query)
                             : StatusOr<std::vector<double>>(
                                   Status::Internal("prepare failed"));
    if (!sling_result.ok()) std::exit(1);
    result.sling_ms = timer.ElapsedSeconds() * 1e3;

    // READS with incremental repair: fix only the touched walk
    // suffixes, then query.
    timer.Restart();
    std::set<NodeId> touched;
    for (const EdgeUpdate& update : stream) touched.insert(update.dst);
    for (NodeId node : touched) {
      if (!reads_dyn.RepairAfterInNeighborhoodChange(*fresh, node).ok()) {
        std::fprintf(stderr, "FATAL: READS repair failed\n");
        std::exit(1);
      }
    }
    auto reads_result = reads_dyn.Query(query);
    if (!reads_result.ok()) std::exit(1);
    const double reads_ms = timer.ElapsedSeconds() * 1e3;

    // Stale SLING: how wrong is the old index on the drifted graph?
    // Precision of its top-50 against the fresh SimPush top-50 (the
    // freshest estimate available at bench cost).
    auto stale_scores = stale_sling.Query(query);
    if (!stale_scores.ok()) std::exit(1);
    const auto fresh_topk = TopK(sp_result->scores, 50, query);
    const auto stale_topk = TopK(*stale_scores, 50, query);
    result.stale_precision = PrecisionAtK(fresh_topk, stale_topk);

    std::printf("%-6d %14.2f %16.2f %16.2f %16.2f %18.3f\n", round,
                result.simpush_ms, result.prsim_ms, result.sling_ms,
                reads_ms, result.stale_precision);
    std::fflush(stdout);
  }
}

// True when `a` and `b` hold the same CSR rows in both directions.
bool SameCsr(const Graph& a, const Graph& b) {
  if (a.num_nodes() != b.num_nodes() || a.num_edges() != b.num_edges()) {
    return false;
  }
  for (NodeId v = 0; v < a.num_nodes(); ++v) {
    const auto out_a = a.OutNeighbors(v);
    const auto out_b = b.OutNeighbors(v);
    const auto in_a = a.InNeighbors(v);
    const auto in_b = b.InNeighbors(v);
    if (!std::equal(out_a.begin(), out_a.end(), out_b.begin(), out_b.end()) ||
        !std::equal(in_a.begin(), in_a.end(), in_b.begin(), in_b.end())) {
      return false;
    }
  }
  return true;
}

// Wall times of `reps` runs of `build`, after one untimed warm-up run.
// The built graph is freed after the clock is read, so its
// deallocation is not timed.
template <typename BuildFn>
BenchSamples TimeBuild(int reps, BuildFn build) {
  BenchSamples samples;
  for (int rep = -1; rep < reps; ++rep) {
    Timer timer;
    const auto built = build();
    if (!built.ok()) std::exit(1);
    if (rep >= 0) samples.per_iter_ms.push_back(timer.ElapsedSeconds() * 1e3);
  }
  return samples;
}

// Full-vs-patched publish cost across a dirty-fraction sweep. A
// ≥1M-edge Chung-Lu graph is the base generation; for each dirty
// fraction we damage that share of its vertices with an update stream,
// then time PendingEdits::Merge against the base (the swap cost the
// registry actually pays), DynamicGraph::SnapshotDelta of the same
// stream, and a full canonical Snapshot(). Both patched outputs are
// verified bit-identical to the full one per fraction.
void RunDeltaSweep(const std::string& json_path) {
  const NodeId n = 200000;
  const EdgeId m = 1600000;
  const int reps = QuickMode() ? 3 : 5;
  auto base_or = GenerateChungLu(n, m, /*exponent=*/2.5, /*seed=*/7);
  if (!base_or.ok()) {
    std::fprintf(stderr, "FATAL: Chung-Lu generation failed\n");
    std::exit(1);
  }
  const Graph& base = *base_or;

  std::printf("\n== delta publish sweep: Chung-Lu n=%u m=%llu ==\n", n,
              static_cast<unsigned long long>(base.num_edges()));
  std::printf("%-12s %12s %14s %14s %14s %10s\n", "dirty_frac",
              "dirty_verts", "full(ms)", "delta(ms)", "merge(ms)", "speedup");

  std::map<std::string, BenchSamples> trajectory;
  for (const double fraction : {0.0001, 0.001, 0.01, 0.05, 0.2}) {
    DynamicGraph dynamic = DynamicGraph::FromGraph(base);
    // Each insert dirties ~2 distinct vertices; deletes overlap the
    // stream's own inserts, so aim with update count ≈ target/2 and
    // report the dirty share actually reached.
    const size_t target = static_cast<size_t>(fraction * n);
    const size_t updates = target > 1 ? target / 2 : 1;
    auto stream = GenerateUpdateStream(base, updates,
                                       /*delete_fraction=*/0.2,
                                       /*seed=*/1000 + updates);
    PendingEdits edits;
    if (!dynamic.Apply(stream).ok() || !edits.Apply(base, stream).ok()) {
      std::fprintf(stderr, "FATAL: sweep stream failed to apply\n");
      std::exit(1);
    }
    const double dirty_fraction =
        static_cast<double>(dynamic.dirty_vertices()) / n;

    // Bit-identity first (untimed): both patched outputs must equal the
    // full canonical snapshot.
    {
      auto full = dynamic.Snapshot();
      auto delta = dynamic.SnapshotDelta(base);
      auto merged = edits.Merge(base);
      if (!full.ok() || !delta.ok() || !merged.ok()) {
        std::fprintf(stderr, "FATAL: sweep snapshot failed\n");
        std::exit(1);
      }
      if (!SameCsr(*full, *delta) || !SameCsr(*full, *merged)) {
        std::fprintf(stderr,
                     "FATAL: patched snapshot diverged from full at "
                     "fraction %g\n",
                     fraction);
        std::exit(1);
      }
    }

    // Time each path in its own loop: interleaving them makes the full
    // rebuild's ~5x larger working set (counting-sort scatter included)
    // bleed cache/TLB pressure into the patched measurements.
    BenchSamples full_samples =
        TimeBuild(reps, [&] { return dynamic.Snapshot(); });
    BenchSamples delta_samples =
        TimeBuild(reps, [&] { return dynamic.SnapshotDelta(base); });
    BenchSamples merge_samples =
        TimeBuild(reps, [&] { return edits.Merge(base); });

    const double full_med = QuantileMs(full_samples.per_iter_ms, 0.5);
    const double delta_med = QuantileMs(delta_samples.per_iter_ms, 0.5);
    const double merge_med = QuantileMs(merge_samples.per_iter_ms, 0.5);
    const double speedup = delta_med > 0 ? full_med / delta_med : 0;
    for (BenchSamples* samples :
         {&full_samples, &delta_samples, &merge_samples}) {
      samples->counters["nodes"] = n;
      samples->counters["edges"] = static_cast<double>(dynamic.num_edges());
      samples->counters["dirty_vertices"] =
          static_cast<double>(dynamic.dirty_vertices());
      samples->counters["dirty_fraction"] = dirty_fraction;
    }
    delta_samples.counters["speedup_vs_full"] = speedup;
    merge_samples.counters["speedup_vs_full"] =
        merge_med > 0 ? full_med / merge_med : 0;

    char label[32];
    std::snprintf(label, sizeof(label), "%.4f", fraction);
    trajectory["full_dirty_" + std::string(label)] = full_samples;
    trajectory["delta_dirty_" + std::string(label)] = delta_samples;
    trajectory["merge_dirty_" + std::string(label)] = merge_samples;
    std::printf("%-12.4f %12zu %14.2f %14.2f %14.2f %9.1fx\n",
                dirty_fraction, dynamic.dirty_vertices(), full_med, delta_med,
                merge_med, speedup);
    std::fflush(stdout);
  }

  if (!json_path.empty()) {
    if (!WriteTrajectoryJson(json_path, "bench_dynamic", trajectory,
                             {{"sweep_graph", "chung_lu n=200000 m=1.6M"}})) {
      std::exit(1);
    }
    std::printf("trajectory written to %s\n", json_path.c_str());
  }
}

}  // namespace
}  // namespace bench
}  // namespace simpush

int main(int argc, char** argv) {
  using namespace simpush;
  using namespace simpush::bench;
  std::string json_path;
  bool sweep_only = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--sweep-only") == 0) {
      sweep_only = true;
    }
  }
  if (!sweep_only) {
    std::printf("== Dynamic updates: index-free vs rebuild-per-update ==\n");
    std::printf(
        "(paper §1 motivation: SimPush pays only an O(m) snapshot per "
        "update batch; index methods pay a full rebuild, or serve stale "
        "results)\n");
    for (const DatasetSpec& spec : SmallDatasets()) {
      RunDataset(spec);
    }
  }
  if (sweep_only || !json_path.empty()) {
    RunDeltaSweep(json_path);
  }
  return 0;
}
