// Shared helpers for the test suite.

#ifndef SIMPUSH_TESTS_TEST_UTIL_H_
#define SIMPUSH_TESTS_TEST_UTIL_H_

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "exact/power_method.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/graph_builder.h"
#include "graph/graph_io.h"
#include "gtest/gtest.h"
#include "simpush/parallel.h"
#include "simpush/source_graph.h"
#include "simpush/topk.h"

namespace simpush {
namespace testing_util {

/// True when two rankings hold the same nodes with bit-equal scores,
/// rank by rank (operator== on doubles would pass -0.0 for +0.0).
inline bool SameRanking(const std::vector<TopKEntry>& a,
                        const std::vector<TopKEntry>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].node != b[i].node ||
        std::memcmp(&a[i].score, &b[i].score, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

/// A connected AF_UNIX stream socket pair standing in for a served
/// connection: `ours` is the server's end a CancelToken probes, `peer`
/// the client's. Closes whichever ends are still open.
struct SocketPair {
  SocketPair() {
    int fds[2] = {-1, -1};
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    ours = fds[0];
    peer = fds[1];
  }
  ~SocketPair() {
    ClosePeer();
    if (ours >= 0) ::close(ours);
  }
  SocketPair(const SocketPair&) = delete;
  SocketPair& operator=(const SocketPair&) = delete;

  /// The client hangs up.
  void ClosePeer() {
    if (peer >= 0) ::close(peer);
    peer = -1;
  }

  int ours = -1;
  int peer = -1;
};

/// An ε_h below every nonzero hitting probability: Source-Push run
/// with it (and detection off, so every level is whole) makes every
/// member of G_u with a nonzero h an attention occurrence, which keeps
/// its exact h.
inline constexpr double kEveryMemberAttention =
    std::numeric_limits<double>::denorm_min();

/// (node, h) of every member of G_u's level ℓ, ascending by node: level
/// 0 is (u, 1.0), a deeper member's h is that of its attention
/// occurrence. Fails the test on a member that is not one; run
/// Source-Push with kEveryMemberAttention.
inline std::vector<std::pair<NodeId, double>> LevelEntries(
    const SourceGraph& gu, uint32_t level) {
  std::vector<std::pair<NodeId, double>> entries;
  for (const NodeId v : gu.Level(level)) {
    AttentionId id = 0;
    if (level == 0) {
      entries.emplace_back(v, 1.0);
    } else if (gu.LookupAttention(level, v, &id)) {
      entries.emplace_back(v, gu.attention_nodes()[id].hitting_prob);
    } else {
      ADD_FAILURE() << "level " << level << " node " << v
                    << " is not an attention occurrence";
    }
  }
  return entries;
}

/// Builds a directed graph from an explicit edge list; aborts the test
/// on failure.
inline Graph MakeGraph(NodeId n,
                       const std::vector<std::pair<NodeId, NodeId>>& edges) {
  GraphBuilder builder(n);
  for (const auto& [a, b] : edges) builder.AddEdge(a, b);
  auto result = std::move(builder).Build();
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

/// The running-example-style small graph used across algorithm tests:
/// a 10-node directed graph with hubs, chains and a cycle, chosen so
/// that every algorithm stage (multi-level attention sets, repeated
/// meeting nodes, dangling nodes) is exercised.
inline Graph MakeFixtureGraph() {
  return MakeGraph(10, {
                           {1, 0}, {2, 0}, {3, 0},           // 0's in: 1,2,3
                           {4, 1}, {5, 1},                   // 1's in: 4,5
                           {5, 2}, {6, 2},                   // 2's in: 5,6
                           {6, 3},                           // 3's in: 6
                           {7, 4}, {8, 4},                   // 4's in: 7,8
                           {8, 5}, {9, 5},                   // 5's in: 8,9
                           {9, 6},                           // 6's in: 9
                           {0, 7},                           // cycle back
                           {2, 9}, {1, 8},
                       });
}

/// Exact SimRank via power method; aborts the test on failure.
inline SimRankMatrix ExactSimRank(const Graph& graph, double c = 0.6) {
  PowerMethodOptions options;
  options.decay = c;
  options.tolerance = 1e-12;
  options.max_iterations = 200;
  auto result = ComputeExactSimRank(graph, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

/// Max absolute error of an estimated single-source vector vs exact row.
inline double MaxError(const std::vector<double>& estimate,
                       const SimRankMatrix& exact, NodeId u) {
  double max_err = 0.0;
  for (NodeId v = 0; v < exact.size(); ++v) {
    max_err = std::max(max_err, std::fabs(estimate[v] - exact(u, v)));
  }
  return max_err;
}

/// Writes `text` to a fresh temporary file, reads it back with
/// LoadEdgeList (the shipped block reader) and removes the file.
inline StatusOr<Graph> LoadEdgeListText(const std::string& text,
                                        const EdgeListOptions& options = {}) {
  std::string path = ::testing::TempDir() + "/simpush_edges_XXXXXX";
  const int fd = ::mkstemp(path.data());
  if (fd < 0) return Status::IOError("mkstemp: " + path);
  const bool written =
      ::write(fd, text.data(), text.size()) ==
      static_cast<ssize_t>(text.size());
  ::close(fd);
  auto graph = written ? LoadEdgeList(path, options)
                       : StatusOr<Graph>(Status::IOError("write: " + path));
  std::remove(path.c_str());
  return graph;
}

/// Random small directed graph for property sweeps (deterministic).
inline Graph RandomGraph(NodeId n, EdgeId m, uint64_t seed) {
  auto result = GenerateErdosRenyi(n, m, seed);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

/// A graph's four CSR arrays, flattened for exact comparison.
struct CsrArrays {
  NodeId num_nodes = 0;
  bool is_symmetric = false;
  std::vector<EdgeId> out_offsets;
  std::vector<NodeId> out_targets;
  std::vector<EdgeId> in_offsets;
  std::vector<NodeId> in_sources;

  bool operator==(const CsrArrays&) const = default;
};

inline CsrArrays CsrOf(const Graph& graph) {
  CsrArrays csr;
  csr.num_nodes = graph.num_nodes();
  csr.is_symmetric = graph.is_symmetric();
  for (NodeId v = 0; v <= graph.num_nodes(); ++v) {
    csr.out_offsets.push_back(graph.OutRowBegin(v));
    csr.in_offsets.push_back(graph.InRowBegin(v));
  }
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    for (NodeId w : graph.OutNeighbors(v)) csr.out_targets.push_back(w);
    for (NodeId w : graph.InNeighbors(v)) csr.in_sources.push_back(w);
  }
  return csr;
}

/// The CSR a builder must produce from `edges`, computed the plain way:
/// one global std::sort (plus std::unique when deduping) for the out
/// side, and a second sort by (dst, src) for the in side. Self-loops are
/// kept. Endpoints must be < n.
inline CsrArrays ReferenceCsr(NodeId n,
                              std::vector<std::pair<NodeId, NodeId>> edges,
                              bool symmetric, bool dedupe) {
  std::sort(edges.begin(), edges.end());
  if (dedupe) edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  CsrArrays csr;
  csr.num_nodes = n;
  csr.is_symmetric = symmetric;
  csr.out_offsets.assign(static_cast<size_t>(n) + 1, 0);
  csr.in_offsets.assign(static_cast<size_t>(n) + 1, 0);
  for (const auto& [src, dst] : edges) {
    ++csr.out_offsets[src + 1];
    ++csr.in_offsets[dst + 1];
    csr.out_targets.push_back(dst);
  }
  for (NodeId v = 0; v < n; ++v) {
    csr.out_offsets[v + 1] += csr.out_offsets[v];
    csr.in_offsets[v + 1] += csr.in_offsets[v];
  }
  std::sort(edges.begin(), edges.end(), [](const auto& x, const auto& y) {
    return std::tie(x.second, x.first) < std::tie(y.second, y.first);
  });
  for (const auto& edge : edges) csr.in_sources.push_back(edge.first);
  return csr;
}

/// The substrate ParallelQueryBatch fans out over: one engine core, one
/// thread pool and one workspace pool (capacity 0 = one per thread).
struct FanOut {
  FanOut(const Graph& graph, const SimPushOptions& options, size_t threads,
         size_t pool_capacity = 0)
      : core(graph, options),
        thread_pool(threads),
        workspaces(pool_capacity != 0 ? pool_capacity
                                      : thread_pool.num_threads()) {}

  ParallelBatchStats Run(const std::vector<NodeId>& queries,
                         const QueryResultFn& on_result) {
    return ParallelQueryBatch(core, thread_pool, workspaces, queries,
                              on_result);
  }
  StatusOr<std::vector<BatchTopKResult>> TopK(
      const std::vector<NodeId>& queries, size_t k,
      ParallelBatchStats* stats = nullptr) {
    return ParallelQueryBatchTopK(core, thread_pool, workspaces, queries, k,
                                  stats);
  }

  EngineCore core;
  ThreadPool thread_pool;
  WorkspacePool workspaces;
};

}  // namespace testing_util
}  // namespace simpush

#endif  // SIMPUSH_TESTS_TEST_UTIL_H_
