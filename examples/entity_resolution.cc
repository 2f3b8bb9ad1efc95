// Entity-resolution / schema-matching scenario (paper §1 cites Melnik
// et al. [25], "similarity flooding" for schema matching).
//
// Setup: a bibliographic graph where papers cite papers. Some papers
// exist twice under different ids (duplicate records from two sources),
// each copy citing essentially the same set of papers. Duplicates are
// structurally-similar pairs: both copies are cited by and cite the same
// neighborhood. SimRank in each direction scores one half of that, so a
// batch of single-source queries per direction surfaces duplicate
// candidates across the whole catalog.

#include <algorithm>
#include <cstdio>
#include <mutex>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "simpush/engine_core.h"
#include "simpush/parallel.h"
#include "simpush/workspace_pool.h"

int main() {
  using namespace simpush;

  // 1. Citation graph: power-law, 4k papers.
  std::printf("Building citation graph (4k papers)...\n");
  auto base = GenerateChungLu(4000, 28000, 2.4, 1234);
  if (!base.ok()) {
    std::fprintf(stderr, "%s\n", base.status().ToString().c_str());
    return 1;
  }

  // 2. Duplicate 25 records: each clone is a new record that cites the
  // original's references (with a little noise) and inherits most of its
  // citers.
  const NodeId kDuplicates = 25;
  Rng rng(55);
  GraphBuilder catalog(base->num_nodes() + kDuplicates);
  for (NodeId v = 0; v < base->num_nodes(); ++v) {
    for (NodeId w : base->OutNeighbors(v)) catalog.AddEdge(v, w);
  }
  std::vector<std::pair<NodeId, NodeId>> duplicates;  // (original, clone)
  for (NodeId i = 0; i < kDuplicates; ++i) {
    // Pick originals with enough structure to be matchable.
    NodeId original;
    do {
      original = static_cast<NodeId>(rng.NextBounded(base->num_nodes()));
    } while (base->InDegree(original) < 4 || base->OutDegree(original) < 4);
    const NodeId clone = base->num_nodes() + i;
    for (NodeId ref : base->OutNeighbors(original)) {
      if (rng.NextDouble() < 0.9) catalog.AddEdge(clone, ref);
    }
    for (NodeId citer : base->InNeighbors(original)) {
      if (rng.NextDouble() < 0.8) catalog.AddEdge(citer, clone);
    }
    duplicates.emplace_back(original, clone);
  }
  auto graph = std::move(catalog).Build(/*dedupe=*/false);
  if (!graph.ok()) return 1;
  std::printf("  planted %zu duplicate records (n=%u, m=%llu)\n",
              duplicates.size(), graph->num_nodes(),
              static_cast<unsigned long long>(graph->num_edges()));

  // 3. A duplicate is cited by what its original is cited by AND cites
  // what its original cites. SimRank on the catalog sees only shared
  // citers, so two leaves sharing their one citer score the maximum, c,
  // above every duplicate; SimRank on the reversed catalog sees only
  // shared references. A pair scores the smaller of the two. Sources
  // are the records with the structure a match needs (in- and out-degree
  // >= 4, as the planting loop requires), paired with every record.
  const NodeId n = graph->num_nodes();
  GraphBuilder reversed(n);
  for (NodeId v = 0; v < n; ++v) {
    for (NodeId w : graph->OutNeighbors(v)) reversed.AddEdge(w, v);
  }
  auto references = std::move(reversed).Build(/*dedupe=*/false);
  if (!references.ok()) return 1;
  std::vector<NodeId> sources;
  std::vector<bool> is_source(n, false);
  for (NodeId v = 0; v < n; ++v) {
    if (graph->InDegree(v) >= 4 && graph->OutDegree(v) >= 4) {
      sources.push_back(v);
      is_source[v] = true;
    }
  }

  SimPushOptions options;
  options.epsilon = 0.01;
  options.walk_budget_cap = 20000;
  ThreadPool threads(4);
  WorkspacePool workspaces(threads.num_threads());
  std::vector<std::vector<float>> cited(sources.size());
  const EngineCore shared_citers(*graph, options);
  const ParallelBatchStats first = ParallelQueryBatch(
      shared_citers, threads, workspaces, sources,
      [&](size_t i, const SimPushResult& result) {
        cited[i].assign(result.scores.begin(), result.scores.end());
        return true;
      });
  struct Candidate {
    NodeId u;
    NodeId v;
    double score;
  };
  std::vector<Candidate> pairs;
  std::mutex pairs_mu;
  const EngineCore shared_references(*references, options);
  const ParallelBatchStats second = ParallelQueryBatch(
      shared_references, threads, workspaces, sources,
      [&](size_t i, const SimPushResult& result) {
        const NodeId u = sources[i];
        std::lock_guard<std::mutex> lock(pairs_mu);
        for (NodeId v = 0; v < n; ++v) {
          // A pair of two sources is scored once, from its smaller id.
          if (v == u || (is_source[v] && v < u)) continue;
          const double score =
              std::min<double>(cited[i][v], result.scores[v]);
          if (score > 0) {
            pairs.push_back({std::min(u, v), std::max(u, v), score});
          }
        }
        return true;
      });
  if (first.queries_failed + second.queries_failed > 0) {
    std::fprintf(stderr, "a query failed\n");
    return 1;
  }
  std::sort(pairs.begin(), pairs.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.score != b.score) return a.score > b.score;
              return std::pair(a.u, a.v) < std::pair(b.u, b.v);
            });
  // A record has at most one duplicate, so a pair stays a candidate only
  // when each of its records is the other's best match: the first pair
  // in score order that names it.
  std::vector<size_t> best(n, pairs.size());
  for (size_t i = pairs.size(); i-- > 0;) {
    best[pairs[i].u] = i;
    best[pairs[i].v] = i;
  }
  const size_t kCandidates = 50;
  std::vector<Candidate> top;
  for (size_t i = 0; i < pairs.size() && top.size() < kCandidates; ++i) {
    if (best[pairs[i].u] == i && best[pairs[i].v] == i) top.push_back(pairs[i]);
  }

  // 4. How many planted duplicates appear among the candidates?
  std::set<std::pair<NodeId, NodeId>> truth;
  for (auto [a, b] : duplicates) {
    truth.emplace(std::min(a, b), std::max(a, b));
  }
  size_t recovered = 0;
  std::printf("\ntop merge candidates (*) = planted duplicate:\n");
  for (size_t i = 0; i < top.size(); ++i) {
    const Candidate& pair = top[i];
    const bool planted = truth.count({pair.u, pair.v}) > 0;
    if (planted) ++recovered;
    if (i < 10) {
      std::printf("  %2zu. (%u, %u) s=%.4f %s\n", i + 1, pair.u, pair.v,
                  pair.score, planted ? "*" : "");
    }
  }
  const double recall = static_cast<double>(recovered) / duplicates.size();
  std::printf("\nrecovered %zu/%zu planted duplicates in the top-%zu "
              "(recall %.2f)\n",
              recovered, duplicates.size(), kCandidates, recall);
  std::printf(
      "Two realtime query batches — re-runnable the moment the catalog "
      "ingests new records, since nothing is precomputed.\n");
  return recall >= 0.5 ? 0 : 1;
}
