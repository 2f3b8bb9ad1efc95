// Ablation study of SimPush's design choices (paper §5.2):
//   (a) γ last-meeting correction on/off — off overestimates;
//   (b) adaptive L detection vs always exploring L* — detection saves
//       push levels with no accuracy loss;
//   (c) combined Reverse-Push vs one push per attention node — the §4.3
//       merge is a pure efficiency win with identical output.

#include <cmath>

#include "bench_common.h"
#include "simpush/reverse_push.h"
#include "simpush/simpush.h"

namespace {

using namespace simpush;

// Runs the query's own source side (G_u and γ), then Reverse-Push
// separately for every attention occurrence (the naive variant SimPush
// §4.3 improves on). Returns per-query seconds; scores must match the
// merged variant.
double TimeSeparateReversePush(const Graph& graph, NodeId u,
                               const SimPushOptions& options,
                               std::vector<double>* scores_out) {
  const EngineCore core(graph, options);
  const DerivedParams& params = core.derived();
  QueryWorkspace workspace;
  SimPushQueryStats stats;
  if (!QueryRunner(core, &workspace).SourceSide(u, &stats).ok()) return -1;
  const SourceGraph& gu = workspace.source_graph;
  const std::vector<double>& gamma = workspace.gamma;

  Timer timer;
  std::vector<double> scores(graph.num_nodes(), 0.0);
  // One single-attention G_u shell per occurrence.
  for (AttentionId id = 0; id < gu.num_attention(); ++id) {
    const AttentionNode& w = gu.attention_nodes()[id];
    SourceGraph single;
    single.set_max_level(w.level);
    single.AddAttentionNode(w.node, w.level, w.hitting_prob);
    std::vector<double> single_gamma{gamma[id]};
    (void)ReversePush(graph, single, single_gamma, params.sqrt_c,
                      params.eps_h, &workspace, &scores, nullptr);
  }
  const double seconds = timer.ElapsedSeconds();
  scores[u] = 1.0;
  if (scores_out != nullptr) *scores_out = std::move(scores);
  return seconds;
}

}  // namespace

int main() {
  using namespace simpush;
  using namespace simpush::bench;

  std::printf("=== Ablation study ===\n");
  const double eps = 0.02;

  for (const DatasetSpec& spec : SmallDatasets()) {
    Graph graph = MustBuildDataset(spec);
    auto queries = GenerateQuerySet(graph, QuickMode() ? 2 : 5, 999);

    // (a) gamma correction on/off: compare total estimated mass (off
    // must be >= on; the difference is the double-counted meetings).
    double mass_on = 0, mass_off = 0, time_on = 0, time_off = 0;
    for (NodeId u : queries) {
      SimPushOptions on;
      on.epsilon = eps;
      on.walk_budget_cap = 50000;
      SimPushOptions off = on;
      off.use_gamma_correction = false;
      SimPushEngine engine_on(graph, on);
      SimPushEngine engine_off(graph, off);
      auto a = engine_on.Query(u);
      auto b = engine_off.Query(u);
      if (!a.ok() || !b.ok()) continue;
      for (NodeId v = 0; v < graph.num_nodes(); ++v) {
        if (v == u) continue;
        mass_on += a->scores[v];
        mass_off += b->scores[v];
      }
      time_on += a->stats.total_seconds;
      time_off += b->stats.total_seconds;
    }
    std::printf(
        "\n[%s] (a) gamma correction: mass on=%.4f off=%.4f (off "
        "overestimates by %.1f%%), time on=%.1fms off=%.1fms\n",
        spec.name.c_str(), mass_on, mass_off,
        mass_on > 0 ? (mass_off / mass_on - 1.0) * 100.0 : 0.0,
        time_on / queries.size() * 1e3, time_off / queries.size() * 1e3);

    // (b) level detection vs always-L*.
    double level_detected = 0, time_detected = 0, time_lstar = 0;
    for (NodeId u : queries) {
      SimPushOptions detect;
      detect.epsilon = eps;
      detect.walk_budget_cap = 50000;
      SimPushOptions lstar = detect;
      lstar.use_level_detection = false;
      SimPushEngine e1(graph, detect);
      SimPushEngine e2(graph, lstar);
      auto a = e1.Query(u);
      auto b = e2.Query(u);
      if (!a.ok() || !b.ok()) continue;
      level_detected += a->stats.max_level;
      time_detected += a->stats.total_seconds;
      time_lstar += b->stats.total_seconds;
    }
    SimPushOptions probe;
    probe.epsilon = eps;
    std::printf(
        "[%s] (b) level detection: avg L=%.2f vs L*=%u; time %.1fms vs "
        "%.1fms\n",
        spec.name.c_str(), level_detected / queries.size(),
        ComputeDerivedParams(probe).l_star,
        time_detected / queries.size() * 1e3,
        time_lstar / queries.size() * 1e3);

    // (c) combined vs separate Reverse-Push (identical scores required).
    double combined_seconds = 0, separate_seconds = 0, max_diff = 0;
    for (NodeId u : queries) {
      SimPushOptions o;
      o.epsilon = eps;
      o.walk_budget_cap = 50000;
      SimPushEngine engine(graph, o);
      auto merged = engine.Query(u);
      if (!merged.ok()) continue;
      combined_seconds += merged->stats.reverse_push_seconds;
      std::vector<double> separate_scores;
      const double sep = TimeSeparateReversePush(graph, u, o,
                                                 &separate_scores);
      if (sep < 0) continue;
      separate_seconds += sep;
      // Note: the separate variant thresholds each residue alone, so it
      // may drop *more* mass; merged >= separate entrywise.
      for (NodeId v = 0; v < graph.num_nodes(); ++v) {
        max_diff = std::max(
            max_diff, merged->scores[v] - separate_scores[v]);
      }
    }
    std::printf(
        "[%s] (c) reverse-push merge: combined=%.1fms separate=%.1fms, max "
        "extra mass kept by merging=%.5f\n",
        spec.name.c_str(), combined_seconds / queries.size() * 1e3,
        separate_seconds / queries.size() * 1e3, max_diff);
    std::fflush(stdout);
  }
  return 0;
}
