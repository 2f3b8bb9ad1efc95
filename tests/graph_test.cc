// Unit tests for the CSR graph and builder.

#include <algorithm>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "graph/graph_builder.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace simpush {
namespace {

using testing_util::MakeGraph;

TEST(GraphBuilderTest, EmptyGraph) {
  GraphBuilder builder(5);
  auto result = std::move(builder).Build();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_nodes(), 5u);
  EXPECT_EQ(result->num_edges(), 0u);
  for (NodeId v = 0; v < 5; ++v) {
    EXPECT_EQ(result->OutDegree(v), 0u);
    EXPECT_EQ(result->InDegree(v), 0u);
  }
}

TEST(GraphBuilderTest, BasicAdjacency) {
  Graph g = MakeGraph(4, {{0, 1}, {0, 2}, {1, 2}, {3, 0}});
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_EQ(g.OutDegree(0), 2u);
  EXPECT_EQ(g.InDegree(2), 2u);
  auto out0 = g.OutNeighbors(0);
  EXPECT_EQ(std::vector<NodeId>(out0.begin(), out0.end()),
            (std::vector<NodeId>{1, 2}));
  auto in2 = g.InNeighbors(2);
  EXPECT_EQ(std::vector<NodeId>(in2.begin(), in2.end()),
            (std::vector<NodeId>{0, 1}));
}

TEST(GraphBuilderTest, RejectsOutOfRangeEdge) {
  GraphBuilder builder(3);
  builder.AddEdge(0, 5);
  auto result = std::move(builder).Build();
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(GraphBuilderTest, DedupesDuplicateEdges) {
  GraphBuilder builder(3);
  builder.AddEdge(0, 1);
  builder.AddEdge(0, 1);
  builder.AddEdge(0, 1);
  auto result = std::move(builder).Build(/*dedupe=*/true);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_edges(), 1u);
}

TEST(GraphBuilderTest, KeepsDuplicatesWhenAsked) {
  GraphBuilder builder(3);
  builder.AddEdge(0, 1);
  builder.AddEdge(0, 1);
  auto result = std::move(builder).Build(/*dedupe=*/false);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_edges(), 2u);
}

TEST(GraphBuilderTest, UndirectedAddsBothDirections) {
  GraphBuilder builder(2);
  builder.AddUndirectedEdge(0, 1);
  builder.MarkSymmetric();
  auto result = std::move(builder).Build();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_edges(), 2u);
  EXPECT_TRUE(result->is_symmetric());
  EXPECT_EQ(result->OutDegree(0), 1u);
  EXPECT_EQ(result->InDegree(0), 1u);
}

// Build's CSR equals a global std::sort + std::unique over the same
// edges, on shuffled multigraphs with duplicates, self-loops and
// isolated nodes, with and without dedupe.
TEST(GraphBuilderTest, BuildMatchesSortUniqueReference) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    std::mt19937_64 rng(seed);
    const NodeId n = 1 + static_cast<NodeId>(rng() % 300);
    // Endpoints come from the lower part of [0, n) only, so the upper
    // nodes stay isolated; a small range forces duplicates and loops.
    const NodeId used = 1 + static_cast<NodeId>(rng() % n);
    const size_t m = rng() % 2000;
    std::vector<std::pair<NodeId, NodeId>> edges;
    for (size_t i = 0; i < m; ++i) {
      const NodeId src = static_cast<NodeId>(rng() % used);
      const NodeId dst =
          rng() % 8 == 0 ? src : static_cast<NodeId>(rng() % used);
      edges.emplace_back(src, dst);
      if (rng() % 4 == 0) edges.emplace_back(src, dst);  // duplicate
    }
    std::shuffle(edges.begin(), edges.end(), rng);
    const bool symmetric = seed % 2 == 0;
    for (const bool dedupe : {false, true}) {
      GraphBuilder builder(n);
      for (const auto& [src, dst] : edges) builder.AddEdge(src, dst);
      if (symmetric) builder.MarkSymmetric();
      auto graph = std::move(builder).Build(dedupe);
      ASSERT_TRUE(graph.ok()) << graph.status().ToString();
      EXPECT_TRUE(testing_util::CsrOf(*graph) ==
                  testing_util::ReferenceCsr(n, edges, symmetric, dedupe))
          << "seed " << seed << " dedupe " << dedupe;
    }
  }
}

TEST(GraphBuilderTest, RejectsOutOfRangeEndpointUnderEveryFlag) {
  // A bad source, a bad target and a bad self-loop: all are
  // InvalidArgument.
  const std::vector<std::pair<NodeId, NodeId>> bad = {{7, 1}, {1, 3}, {4, 4}};
  for (const auto& [src, dst] : bad) {
    for (const bool dedupe : {false, true}) {
      GraphBuilder builder(3);
      builder.AddEdge(0, 1);
      builder.AddEdge(src, dst);
      builder.AddEdge(2, 0);
      auto result = std::move(builder).Build(dedupe);
      ASSERT_FALSE(result.ok()) << src << "->" << dst;
      EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

TEST(GraphTest, InOutConsistency) {
  Graph g = testing_util::RandomGraph(50, 300, 1234);
  // Every out-edge (v, w) must appear as in-edge of w and vice versa.
  size_t out_count = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (NodeId w : g.OutNeighbors(v)) {
      auto in = g.InNeighbors(w);
      EXPECT_NE(std::find(in.begin(), in.end(), v), in.end());
      ++out_count;
    }
  }
  EXPECT_EQ(out_count, g.num_edges());
}

TEST(GraphTest, InNeighborAtMatchesSpan) {
  Graph g = testing_util::RandomGraph(30, 150, 99);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    auto in = g.InNeighbors(v);
    for (uint32_t k = 0; k < g.InDegree(v); ++k) {
      EXPECT_EQ(g.InNeighborAt(v, k), in[k]);
    }
  }
}

TEST(GraphTest, ValidatePassesOnBuiltGraph) {
  Graph g = testing_util::RandomGraph(40, 200, 5);
  EXPECT_TRUE(g.Validate().ok());
}

TEST(GraphTest, MemoryBytesScalesWithEdges) {
  Graph small = testing_util::RandomGraph(50, 100, 1);
  Graph big = testing_util::RandomGraph(50, 1000, 1);
  EXPECT_GT(big.MemoryBytes(), small.MemoryBytes());
}

TEST(GraphTest, DegreeStats) {
  //   0 -> 1, 0 -> 2, 1 -> 2; node 3 isolated.
  Graph g = MakeGraph(4, {{0, 1}, {0, 2}, {1, 2}});
  auto stats = g.ComputeDegreeStats();
  EXPECT_EQ(stats.max_out_degree, 2u);
  EXPECT_EQ(stats.max_in_degree, 2u);
  EXPECT_EQ(stats.num_sink_nodes, 2u);    // 2 and 3
  EXPECT_EQ(stats.num_source_nodes, 2u);  // 0 and 3
  EXPECT_DOUBLE_EQ(stats.avg_out_degree, 3.0 / 4.0);
}

TEST(GraphTest, AdjacencyIsSorted) {
  Graph g = testing_util::RandomGraph(60, 400, 77);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    auto out = g.OutNeighbors(v);
    EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
  }
}

}  // namespace
}  // namespace simpush
