// simpush_cli — command-line front end for the library.
//
// Subcommands:
//   query    answer single-source SimRank queries on an edge-list graph
//   topk     answer top-k queries (SimPush or a baseline)
//   pair     estimate s(u, v) for explicit pairs
//   join     similarity join (pairs with s >= threshold) / top pairs
//   stats    print graph statistics (degree histogram + power-law fit)
//   convert  edge-list <-> SPG1 binary conversion
//   generate write a synthetic graph (er | ba | chunglu | rmat | ws | sbm)
//
// Examples:
//   simpush_cli generate --nodes 10000 --edges 80000 --out web.txt
//   simpush_cli query --graph web.txt --node 42 --epsilon 0.01
//   simpush_cli topk --graph web.txt --node 42 --k 20 --method probesim

#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "args.h"
#include "baselines/probesim.h"
#include "baselines/prsim.h"
#include "baselines/sling.h"
#include "graph/degree_stats.h"
#include "graph/generators.h"
#include "graph/graph_io.h"
#include "simpush/engine_core.h"
#include "simpush/query_runner.h"
#include "simpush/single_pair.h"
#include "simpush/join.h"
#include "simpush/topk.h"
#include "simpush/workspace_pool.h"

namespace {

using namespace simpush;

// Bound for flags narrowed to NodeId or uint32_t.
constexpr uint64_t kMaxUint32 = std::numeric_limits<uint32_t>::max();

int Usage() {
  std::fprintf(
      stderr,
      "usage: simpush_cli <query|topk|pair|join|stats|convert|generate> "
      "[--flag value]...\n"
      "  query    --graph F --node U [--epsilon E] [--decay C] "
      "[--undirected 1] [--limit N]\n"
      "  topk     --graph F --node U [--k K] [--epsilon E] [--method "
      "simpush|probesim|sling|prsim]\n"
      "  pair     --graph F --node U --targets V1,V2,... [--epsilon E] "
      "[--walks W]\n"
      "  join     --graph F [--threshold T | --top N] [--epsilon E] "
      "[--threads P]\n"
      "  stats    --graph F [--undirected 1] (degree stats + power-law "
      "fit)\n"
      "  convert  --in F --out F (format by extension: .spg = binary)\n"
      "  generate --kind er|ba|chunglu|rmat|ws|sbm --nodes N [--edges M] "
      "[--gamma G] [--seed S] --out F\n");
  return 2;
}

StatusOr<Graph> LoadGraphArg(const Args& args, const std::string& key) {
  const std::string path = args.Get(key, "");
  if (path.empty()) return Status::InvalidArgument("missing --" + key);
  EdgeListOptions options;
  options.undirected = args.GetInt("undirected", 0) != 0;
  return LoadGraphAnyFormat(path, options);
}

// Prints at most k "node score" rows of `scores`, best first, listing
// only positive scores and never u itself (SelectTopK order).
void PrintTopK(const std::vector<double>& scores, size_t k, NodeId u) {
  std::vector<TopKEntry> top;
  SelectTopK(scores, k, u, &top);
  for (const TopKEntry& entry : top) {
    std::printf("%u %.6f\n", entry.node, entry.score);
  }
}

int RunQuery(const Args& args) {
  auto graph = LoadGraphArg(args, "graph");
  if (!graph.ok()) {
    std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
    return 1;
  }
  SimPushOptions options;
  options.epsilon = args.GetDouble("epsilon", 0.01);
  options.decay = args.GetDouble("decay", 0.6);
  // The serving shape: an immutable core plus a workspace pool. A CLI
  // query needs exactly one workspace; a server would share the same
  // core and a wider pool across its request threads.
  EngineCore core(*graph, options);
  WorkspacePool pool(1);
  QueryRunner runner(core, pool);
  const NodeId u = static_cast<NodeId>(args.GetInt("node", 0, kMaxUint32));
  auto result = runner.Query(u);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  std::vector<TopKEntry> top;
  SelectTopK(result->scores, args.GetInt("limit", 20), u, &top);
  std::printf("# s(%u, v) — showing %zu highest of %u nodes (%.2f ms)\n", u,
              top.size(), graph->num_nodes(),
              result->stats.total_seconds * 1e3);
  for (const TopKEntry& entry : top) {
    std::printf("%u %.6f\n", entry.node, entry.score);
  }
  return 0;
}

int RunTopK(const Args& args) {
  // Every method shares SimPush's ε range check, so a bad --epsilon
  // fails the same way whichever method would have run.
  SimPushOptions options;
  options.epsilon = args.GetDouble("epsilon", 0.01);
  const Status valid = options.Validate();
  if (!valid.ok()) {
    std::fprintf(stderr, "%s\n", valid.ToString().c_str());
    return 1;
  }
  auto graph = LoadGraphArg(args, "graph");
  if (!graph.ok()) {
    std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
    return 1;
  }
  const NodeId u = static_cast<NodeId>(args.GetInt("node", 0, kMaxUint32));
  const size_t k = args.GetInt("k", 10);
  const std::string method = args.Get("method", "simpush");

  if (method == "simpush") {
    EngineCore core(*graph, options);
    WorkspacePool pool(1);
    QueryRunner runner(core, pool);
    auto result = QueryTopK(&runner, u, k);
    if (!result.ok()) {
      std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
      return 1;
    }
    for (const TopKEntry& entry : result->entries) {
      std::printf("%u %.6f\n", entry.node, entry.score);
    }
    return 0;
  }

  std::unique_ptr<SingleSourceAlgorithm> algo;
  if (method == "probesim") {
    ProbeSimOptions o;
    o.epsilon = options.epsilon;
    o.max_walks = 50000;
    algo = std::make_unique<ProbeSim>(*graph, o);
  } else if (method == "sling") {
    SlingOptions o;
    o.epsilon = options.epsilon;
    algo = std::make_unique<Sling>(*graph, o);
  } else if (method == "prsim") {
    PRSimOptions o;
    o.epsilon = options.epsilon;
    algo = std::make_unique<PRSim>(*graph, o);
  } else {
    std::fprintf(stderr, "unknown method '%s'\n", method.c_str());
    return 2;
  }
  Status prep = algo->Prepare();
  if (!prep.ok()) {
    std::fprintf(stderr, "%s\n", prep.ToString().c_str());
    return 1;
  }
  auto scores = algo->Query(u);
  if (!scores.ok()) {
    std::fprintf(stderr, "%s\n", scores.status().ToString().c_str());
    return 1;
  }
  PrintTopK(*scores, k, u);
  return 0;
}

int RunPair(const Args& args) {
  auto graph = LoadGraphArg(args, "graph");
  if (!graph.ok()) {
    std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
    return 1;
  }
  const NodeId u = static_cast<NodeId>(args.GetInt("node", 0, kMaxUint32));
  const std::string targets = args.Get("targets", "");
  if (targets.empty()) return Usage();
  std::vector<NodeId> target_ids;
  for (size_t start = 0; start <= targets.size();) {
    size_t comma = targets.find(',', start);
    if (comma == std::string::npos) comma = targets.size();
    uint64_t v = 0;
    if (!ParseUnsignedDecimal(targets.substr(start, comma - start),
                              kMaxUint32, &v)) {
      std::fprintf(stderr,
                   "bad --targets \"%s\": need comma-separated unsigned "
                   "decimal node ids\n",
                   targets.c_str());
      return 2;
    }
    target_ids.push_back(static_cast<NodeId>(v));
    start = comma + 1;
  }

  SimPushOptions options;
  options.epsilon = args.GetDouble("epsilon", 0.01);
  auto session = SinglePairSession::Create(*graph, u, options);
  if (!session.ok()) {
    std::fprintf(stderr, "%s\n", session.status().ToString().c_str());
    return 1;
  }
  const uint64_t walks = args.GetInt("walks", 0);  // 0 = Hoeffding default
  std::printf("# s(%u, v) pair estimates (%zu attention nodes, L=%u)\n", u,
              session->num_attention(), session->max_level());
  for (const NodeId v : target_ids) {
    auto result = session->Estimate(v, walks);
    if (!result.ok()) {
      std::fprintf(stderr, "node %u: %s\n", v,
                   result.status().ToString().c_str());
    } else {
      std::printf("%u %.6f\n", v, result->score);
    }
  }
  return 0;
}


int RunJoin(const Args& args) {
  auto graph = LoadGraphArg(args, "graph");
  if (!graph.ok()) {
    std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
    return 1;
  }
  JoinOptions options;
  options.query.epsilon = args.GetDouble("epsilon", 0.01);
  options.num_threads = args.GetInt("threads", 0);

  StatusOr<std::vector<SimilarPair>> pairs =
      args.Has("top")
          ? TopPairs(*graph, args.GetInt("top", 25), options)
          : SimilarityJoin(*graph, args.GetDouble("threshold", 0.1),
                           options);
  if (!pairs.ok()) {
    std::fprintf(stderr, "%s\n", pairs.status().ToString().c_str());
    return 1;
  }
  std::printf("# %zu pairs\n", pairs->size());
  for (const SimilarPair& pair : *pairs) {
    std::printf("%u %u %.6f\n", pair.u, pair.v, pair.score);
  }
  return 0;
}

int RunStats(const Args& args) {
  auto graph = LoadGraphArg(args, "graph");
  if (!graph.ok()) {
    std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
    return 1;
  }
  const auto stats = graph->ComputeDegreeStats();
  std::printf("nodes:        %u\n", graph->num_nodes());
  std::printf("edges:        %llu\n",
              static_cast<unsigned long long>(graph->num_edges()));
  std::printf("avg degree:   %.3f\n", stats.avg_out_degree);
  std::printf("max out-deg:  %u\n", stats.max_out_degree);
  std::printf("max in-deg:   %u\n", stats.max_in_degree);
  std::printf("sink nodes:   %u\n", stats.num_sink_nodes);
  std::printf("source nodes: %u\n", stats.num_source_nodes);
  std::printf("symmetric:    %s\n", graph->is_symmetric() ? "yes" : "no");
  std::printf("CSR bytes:    %zu\n", graph->MemoryBytes());

  const auto histogram = ComputeDegreeHistogram(*graph, DegreeKind::kIn);
  std::printf("degree gini:  %.3f\n", DegreeGini(histogram));
  auto fit = FitPowerLaw(histogram);
  if (fit.ok()) {
    std::printf("power-law:    alpha=%.2f dmin=%u ks=%.3f (tail %llu "
                "nodes)\n",
                fit->alpha, fit->d_min, fit->ks_distance,
                static_cast<unsigned long long>(fit->tail_nodes));
  } else {
    std::printf("power-law:    no fit (%s)\n",
                fit.status().message().c_str());
  }
  return 0;
}

int RunConvert(const Args& args) {
  const std::string out = args.Get("out", "");
  if (out.empty()) return Usage();
  auto graph = LoadGraphArg(args, "in");
  if (!graph.ok()) {
    std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
    return 1;
  }
  Status status = SaveGraphAnyFormat(*graph, out);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s (n=%u, m=%llu)\n", out.c_str(), graph->num_nodes(),
              static_cast<unsigned long long>(graph->num_edges()));
  return 0;
}

int RunGenerate(const Args& args) {
  const std::string out = args.Get("out", "");
  if (out.empty()) return Usage();
  const std::string kind = args.Get("kind", "chunglu");
  const NodeId n =
      static_cast<NodeId>(args.GetInt("nodes", 10000, kMaxUint32));
  const EdgeId m = args.GetInt("edges", uint64_t(n) * 8);
  const uint64_t seed = args.GetInt("seed", 1);
  const bool undirected = args.GetInt("undirected", 0) != 0;
  StatusOr<Graph> graph = Status::InvalidArgument("unknown kind");
  if (kind == "er") {
    graph = GenerateErdosRenyi(n, m, seed, undirected);
  } else if (kind == "ba") {
    graph = GenerateBarabasiAlbert(
        n, static_cast<uint32_t>(args.GetInt("attach", 4, kMaxUint32)), seed,
        undirected);
  } else if (kind == "chunglu") {
    graph = GenerateChungLu(n, m, args.GetDouble("gamma", 2.2), seed,
                            undirected);
  } else if (kind == "rmat") {
    // --nodes is rounded up to the next power of two.
    uint32_t scale = 1;
    while ((1u << scale) < n && scale < 30) ++scale;
    graph = GenerateRMat(scale, m, seed, args.GetDouble("a", 0.57),
                         args.GetDouble("b", 0.19), args.GetDouble("c", 0.19),
                         undirected);
  } else if (kind == "ws") {
    graph = GenerateWattsStrogatz(
        n, static_cast<uint32_t>(args.GetInt("k", 8, kMaxUint32)),
        args.GetDouble("beta", 0.1), seed);
  } else if (kind == "sbm") {
    graph = GenerateStochasticBlockModel(
        n, static_cast<uint32_t>(args.GetInt("blocks", 10, kMaxUint32)),
        args.GetDouble("p-in", 0.05), args.GetDouble("p-out", 0.001), seed);
  }
  if (!graph.ok()) {
    std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
    return 1;
  }
  Status status = SaveGraphAnyFormat(*graph, out);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s (n=%u, m=%llu)\n", out.c_str(), graph->num_nodes(),
              static_cast<unsigned long long>(graph->num_edges()));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  const Args args(argc, argv, /*first=*/2);
  if (command == "query") return RunQuery(args);
  if (command == "topk") return RunTopK(args);
  if (command == "pair") return RunPair(args);
  if (command == "join") return RunJoin(args);
  if (command == "stats") return RunStats(args);
  if (command == "convert") return RunConvert(args);
  if (command == "generate") return RunGenerate(args);
  return Usage();
}
