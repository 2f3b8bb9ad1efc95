#include "checks.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <thread>

#include "common/rng.h"
#include "eval/metrics.h"
#include "exact/power_method.h"
#include "graph/generators.h"
#include "serve/json.h"
#include "simpush/workspace.h"

namespace simpush {
namespace bench_e2e {

namespace {

constexpr uint64_t kPreflightStream = 3 << 20;
constexpr size_t kPreflightSources = 16;

// The top-k rule of /v1/query and /v1/batch: self excluded, positive
// scores only, descending, ties to the smaller id.
std::vector<std::pair<NodeId, double>> TopEntries(
    const std::vector<double>& scores, NodeId source) {
  std::vector<std::pair<NodeId, double>> top;
  for (const NodeId v : TopK(scores, kTopK, source)) {
    if (scores[v] <= 0.0) break;
    top.emplace_back(v, scores[v]);
  }
  return top;
}

Status ParseTop(const serve::JsonValue& item, uint64_t generation,
                std::vector<ReplayJob>* jobs) {
  const serve::JsonValue* node = item.Find("node");
  const serve::JsonValue* top = item.Find("top");
  if (node == nullptr || top == nullptr || !top->is_array()) {
    return Status::InvalidArgument("response lacks node/top");
  }
  SIMPUSH_ASSIGN_OR_RETURN(const uint64_t source, node->AsIndex());
  ReplayJob job;
  job.generation = generation;
  job.node = static_cast<NodeId>(source);
  for (const serve::JsonValue& entry : top->array_items()) {
    const serve::JsonValue* v = entry.Find("node");
    const serve::JsonValue* score = entry.Find("score");
    if (v == nullptr || score == nullptr || !score->is_number()) {
      return Status::InvalidArgument("malformed top entry");
    }
    SIMPUSH_ASSIGN_OR_RETURN(const uint64_t target, v->AsIndex());
    job.top.emplace_back(static_cast<NodeId>(target), score->number_value());
  }
  jobs->push_back(std::move(job));
  return Status::OK();
}

// One query to replay: a node on the engine of some generation.
using ReplayItem = std::pair<const EngineCore*, NodeId>;

// Runs every item through QueryInto, `threads` at a time, each worker
// on its own caller-owned workspace.
Status ReplayItems(const std::vector<ReplayItem>& items, size_t threads,
                   std::vector<SimPushResult>* results) {
  results->assign(items.size(), SimPushResult{});
  std::vector<Status> statuses(items.size());
  std::atomic<size_t> next{0};
  std::vector<std::thread> workers;
  for (size_t t = 0; t < std::min(threads, items.size()); ++t) {
    workers.emplace_back([&] {
      QueryWorkspace workspace;
      for (size_t i = next++; i < items.size(); i = next++) {
        QueryRunner runner(*items[i].first, &workspace);
        statuses[i] = runner.QueryInto(items[i].second, &(*results)[i]);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  for (const Status& status : statuses) SIMPUSH_RETURN_NOT_OK(status);
  return Status::OK();
}

// One generation's graph and the jobs that name it.
struct ReplayGroup {
  const Graph* graph;
  std::vector<const ReplayJob*> jobs;
};

// Replays every group's jobs on its graph, all groups at once, and
// counts top-k lists that differ in any node or any score bit.
Status CheckGroups(const std::vector<ReplayGroup>& groups,
                   ReplayCheck* check) {
  std::deque<EngineCore> cores;  // Stable addresses for the items.
  std::vector<ReplayItem> items;
  std::vector<const ReplayJob*> jobs;
  for (const ReplayGroup& group : groups) {
    cores.emplace_back(*group.graph, EngineOptions());
    for (const ReplayJob* job : group.jobs) {
      items.emplace_back(&cores.back(), job->node);
      jobs.push_back(job);
    }
  }
  std::vector<SimPushResult> results;
  SIMPUSH_RETURN_NOT_OK(ReplayItems(items, kServerThreads, &results));
  for (size_t i = 0; i < jobs.size(); ++i) {
    ++check->checked;
    if (TopEntries(results[i].scores, jobs[i]->node) != jobs[i]->top) {
      if (check->mismatched++ == 0) {
        check->detail = "top-k of node " + std::to_string(jobs[i]->node) +
                        " on generation " +
                        std::to_string(jobs[i]->generation) +
                        " differs from its replay";
      }
    }
  }
  check->generations += groups.size();
  return Status::OK();
}

// The pre-flight graph's exact SimRank. Like the graph inputs it is a
// fixed input: the power method runs once (~0.5 s) and its matrix is
// cached in `data_dir` as n, c and n² doubles.
StatusOr<SimRankMatrix> ExactOracle(const Graph& graph, double decay,
                                    const std::string& data_dir) {
  char name[128];
  std::snprintf(name, sizeof(name), "%.*s-n%u-m%llu-g%g-s%llu-c%g.exact",
                static_cast<int>(kPreflightGraph.name.size()),
                kPreflightGraph.name.data(), kPreflightGraph.nodes,
                static_cast<unsigned long long>(kPreflightGraph.edges),
                kPreflightGraph.gamma,
                static_cast<unsigned long long>(kPreflightGraph.seed), decay);
  const std::string path = data_dir + "/" + name;
  const NodeId n = graph.num_nodes();
  if (std::ifstream in(path, std::ios::binary); in) {
    NodeId stored_n = 0;
    double stored_decay = 0;
    in.read(reinterpret_cast<char*>(&stored_n), sizeof(stored_n));
    in.read(reinterpret_cast<char*>(&stored_decay), sizeof(stored_decay));
    if (in && stored_n == n && stored_decay == decay) {
      SimRankMatrix exact(n, 0.0);
      for (NodeId u = 0; u < n && in; ++u) {
        in.read(reinterpret_cast<char*>(&exact(u, 0)),
                static_cast<std::streamsize>(sizeof(double) * n));
      }
      if (in) return exact;
    }
  }
  PowerMethodOptions options;
  options.decay = decay;
  SIMPUSH_ASSIGN_OR_RETURN(SimRankMatrix exact,
                           ComputeExactSimRank(graph, options));
  std::error_code error;
  std::filesystem::create_directories(data_dir, error);
  const std::string temp = path + ".tmp";
  {
    std::ofstream out(temp, std::ios::binary);
    out.write(reinterpret_cast<const char*>(&n), sizeof(n));
    out.write(reinterpret_cast<const char*>(&decay), sizeof(decay));
    for (NodeId u = 0; u < n; ++u) {
      out.write(reinterpret_cast<const char*>(&exact(u, 0)),
                static_cast<std::streamsize>(sizeof(double) * n));
    }
    if (!out) return Status::IOError("cannot write " + temp);
  }
  std::filesystem::rename(temp, path, error);
  if (error) return Status::IOError("cannot rename " + temp);
  return exact;
}

bool SameCsr(const Graph& a, const Graph& b) {
  if (a.num_nodes() != b.num_nodes() || a.num_edges() != b.num_edges() ||
      a.is_symmetric() != b.is_symmetric()) {
    return false;
  }
  for (NodeId v = 0; v <= a.num_nodes(); ++v) {
    if (a.OutRowBegin(v) != b.OutRowBegin(v) ||
        a.InRowBegin(v) != b.InRowBegin(v)) {
      return false;
    }
  }
  for (NodeId v = 0; v < a.num_nodes(); ++v) {
    const auto out_a = a.OutNeighbors(v), out_b = b.OutNeighbors(v);
    const auto in_a = a.InNeighbors(v), in_b = b.InNeighbors(v);
    if (!std::equal(out_a.begin(), out_a.end(), out_b.begin()) ||
        !std::equal(in_a.begin(), in_a.end(), in_b.begin())) {
      return false;
    }
  }
  return true;
}

}  // namespace

StatusOr<double> PreflightMaxError(uint64_t seed, const std::string& data_dir) {
  const StatusOr<Graph> generated =
      GenerateChungLu(kPreflightGraph.nodes, kPreflightGraph.edges,
                      kPreflightGraph.gamma, kPreflightGraph.seed);
  if (!generated.ok()) return generated.status();
  const Graph& graph = *generated;
  const SimPushOptions options = EngineOptions();
  const StatusOr<SimRankMatrix> exact =
      ExactOracle(graph, options.decay, data_dir);
  if (!exact.ok()) return exact.status();
  const EngineCore core(graph, options);
  Rng rng(DeriveStreamSeed(seed, kPreflightStream));
  std::vector<NodeId> sources;
  for (size_t i = 0; i < kPreflightSources; ++i) {
    sources.push_back(static_cast<NodeId>(rng.NextBounded(graph.num_nodes())));
  }
  std::vector<SimPushResult> results;
  SIMPUSH_RETURN_NOT_OK(
      ReplayQueries(core, sources, kServerThreads, &results));
  double max_error = 0;
  for (size_t i = 0; i < sources.size(); ++i) {
    for (NodeId v = 0; v < graph.num_nodes(); ++v) {
      max_error = std::max(
          max_error, std::abs(results[i].scores[v] - (*exact)(sources[i], v)));
    }
  }
  return max_error;
}

Status ParseKept(const std::vector<KeptResponse>& kept,
                 std::vector<ReplayJob>* jobs) {
  for (const KeptResponse& response : kept) {
    SIMPUSH_ASSIGN_OR_RETURN(const serve::JsonValue doc,
                             serve::ParseJson(response.body));
    if (const serve::JsonValue* results = doc.Find("results")) {
      if (!results->is_array()) {
        return Status::InvalidArgument("batch results is not an array");
      }
      for (const serve::JsonValue& item : results->array_items()) {
        SIMPUSH_RETURN_NOT_OK(ParseTop(item, response.generation, jobs));
      }
    } else {
      SIMPUSH_RETURN_NOT_OK(ParseTop(doc, response.generation, jobs));
    }
  }
  return Status::OK();
}

Status ReplayQueries(const EngineCore& core, const std::vector<NodeId>& nodes,
                     size_t threads, std::vector<SimPushResult>* results) {
  std::vector<ReplayItem> items;
  for (const NodeId node : nodes) items.emplace_back(&core, node);
  return ReplayItems(items, threads, results);
}

StatusOr<ReplayCheck> CheckStatic(const Graph& served,
                                  uint64_t served_generation,
                                  const std::vector<ReplayJob>& jobs) {
  ReplayCheck check;
  ReplayGroup group{&served, {}};
  for (const ReplayJob& job : jobs) {
    if (job.generation != served_generation) {
      return Status::Internal("a response names generation " +
                              std::to_string(job.generation) +
                              " on a workload without writes");
    }
    group.jobs.push_back(&job);
  }
  SIMPUSH_RETURN_NOT_OK(CheckGroups({group}, &check));
  return check;
}

StatusOr<ReplayCheck> CheckChurn(
    const Graph& initial, const Graph& served,
    const std::vector<std::vector<EdgeUpdate>>& batches,
    const std::vector<Publish>& accepted,
    const std::vector<ReplayJob>& jobs) {
  ReplayCheck check;
  std::map<uint64_t, std::vector<const ReplayJob*>> by_generation;
  for (const ReplayJob& job : jobs) by_generation[job.generation].push_back(&job);

  // Walk the generations in publish order. Intermediate generations are
  // rebuilt with SnapshotDelta (fast); the final comparison uses a full
  // Snapshot(), a code path independent of the registry's delta swap.
  // Most generations carry one sampled job, so their replays run
  // kServerThreads generations at a time.
  DynamicGraph mirror = DynamicGraph::FromGraph(initial);
  std::deque<Graph> snapshots;  // Awaiting replay; back() is the delta base.
  std::vector<ReplayGroup> groups;
  auto replay_groups = [&]() -> Status {
    SIMPUSH_RETURN_NOT_OK(CheckGroups(groups, &check));
    groups.clear();
    while (snapshots.size() > 1) snapshots.pop_front();
    return Status::OK();
  };
  uint64_t generation = 1;
  size_t next_publish = 0;
  for (const auto& [wanted, group] : by_generation) {
    while (next_publish < accepted.size() &&
           accepted[next_publish].generation <= wanted) {
      SIMPUSH_RETURN_NOT_OK(mirror.Apply(batches[accepted[next_publish].batch]));
      generation = accepted[next_publish].generation;
      ++next_publish;
    }
    if (generation != wanted) {
      return Status::Internal("no accepted publish produced generation " +
                              std::to_string(wanted));
    }
    SIMPUSH_ASSIGN_OR_RETURN(
        Graph snapshot,
        mirror.SnapshotDelta(snapshots.empty() ? initial : snapshots.back()));
    mirror.MarkClean();
    snapshots.push_back(std::move(snapshot));
    groups.push_back({&snapshots.back(), group});
    if (groups.size() == kServerThreads) SIMPUSH_RETURN_NOT_OK(replay_groups());
  }
  SIMPUSH_RETURN_NOT_OK(replay_groups());
  for (; next_publish < accepted.size(); ++next_publish) {
    SIMPUSH_RETURN_NOT_OK(mirror.Apply(batches[accepted[next_publish].batch]));
  }
  SIMPUSH_ASSIGN_OR_RETURN(const Graph final_snapshot, mirror.Snapshot());
  check.csr_identical = SameCsr(final_snapshot, served);
  if (!check.csr_identical && check.detail.empty()) {
    check.detail = "final generation's CSR differs from the mirror's Snapshot()";
  }
  return check;
}

}  // namespace bench_e2e
}  // namespace simpush
