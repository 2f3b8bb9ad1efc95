// Unit and property tests for the synthetic graph generators.

#include <cmath>

#include "graph/generators.h"
#include "gtest/gtest.h"
#include "reference/graphs.h"

namespace simpush {
namespace {

TEST(ErdosRenyiTest, ExactEdgeCount) {
  auto g = GenerateErdosRenyi(100, 500, 1);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_nodes(), 100u);
  EXPECT_EQ(g->num_edges(), 500u);
  EXPECT_TRUE(g->Validate().ok());
}

TEST(ErdosRenyiTest, DeterministicInSeed) {
  auto a = GenerateErdosRenyi(50, 200, 7);
  auto b = GenerateErdosRenyi(50, 200, 7);
  ASSERT_TRUE(a.ok() && b.ok());
  for (NodeId v = 0; v < 50; ++v) {
    EXPECT_EQ(a->OutDegree(v), b->OutDegree(v));
  }
}

TEST(ErdosRenyiTest, DifferentSeedsDiffer) {
  auto a = GenerateErdosRenyi(50, 200, 7);
  auto b = GenerateErdosRenyi(50, 200, 8);
  ASSERT_TRUE(a.ok() && b.ok());
  int differing = 0;
  for (NodeId v = 0; v < 50; ++v) {
    if (a->OutDegree(v) != b->OutDegree(v)) ++differing;
  }
  EXPECT_GT(differing, 0);
}

TEST(ErdosRenyiTest, RejectsTooManyEdges) {
  EXPECT_FALSE(GenerateErdosRenyi(3, 100, 1).ok());
  EXPECT_FALSE(GenerateErdosRenyi(1, 0, 1).ok());
}

TEST(ErdosRenyiTest, UndirectedIsSymmetric) {
  auto g = GenerateErdosRenyi(40, 100, 3, /*undirected=*/true);
  ASSERT_TRUE(g.ok());
  EXPECT_TRUE(g->is_symmetric());
  EXPECT_EQ(g->num_edges(), 200u);
  for (NodeId v = 0; v < g->num_nodes(); ++v) {
    EXPECT_EQ(g->OutDegree(v), g->InDegree(v));
  }
}

TEST(BarabasiAlbertTest, BasicStructure) {
  auto g = GenerateBarabasiAlbert(500, 3, 11);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_nodes(), 500u);
  // Node v >= 3 adds exactly 3 out-edges; earlier nodes add min(k, v).
  EXPECT_GE(g->num_edges(), 3u * 497u);
  EXPECT_TRUE(g->Validate().ok());
}

TEST(BarabasiAlbertTest, ProducesSkewedInDegrees) {
  auto g = GenerateBarabasiAlbert(2000, 2, 13);
  ASSERT_TRUE(g.ok());
  auto stats = g->ComputeDegreeStats();
  // Preferential attachment must produce a hub far above the average.
  EXPECT_GT(stats.max_in_degree, 10 * g->num_edges() / g->num_nodes());
}

TEST(BarabasiAlbertTest, RejectsBadArguments) {
  EXPECT_FALSE(GenerateBarabasiAlbert(1, 2, 1).ok());
  EXPECT_FALSE(GenerateBarabasiAlbert(10, 0, 1).ok());
}

TEST(ChungLuTest, ApproximateEdgeCountAndSkew) {
  auto g = GenerateChungLu(2000, 10000, 2.2, 17);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_nodes(), 2000u);
  EXPECT_EQ(g->num_edges(), 10000u);
  auto stats = g->ComputeDegreeStats();
  EXPECT_GT(stats.max_in_degree, 50u);  // Heavy head exists.
}

TEST(ChungLuTest, HigherGammaIsLessSkewed) {
  auto heavy = GenerateChungLu(2000, 10000, 2.0, 19);
  auto light = GenerateChungLu(2000, 10000, 3.5, 19);
  ASSERT_TRUE(heavy.ok() && light.ok());
  EXPECT_GT(heavy->ComputeDegreeStats().max_in_degree,
            light->ComputeDegreeStats().max_in_degree);
}

TEST(ChungLuTest, RejectsBadGamma) {
  EXPECT_FALSE(GenerateChungLu(10, 20, 1.0, 1).ok());
}

TEST(CycleTest, EveryNodeDegreeOne) {
  auto g = GenerateCycle(10);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_edges(), 10u);
  for (NodeId v = 0; v < 10; ++v) {
    EXPECT_EQ(g->OutDegree(v), 1u);
    EXPECT_EQ(g->InDegree(v), 1u);
  }
}

TEST(StarTest, SpokesPointToHub) {
  auto g = GenerateStar(6);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->InDegree(0), 5u);
  EXPECT_EQ(g->OutDegree(0), 0u);
  for (NodeId v = 1; v < 6; ++v) {
    EXPECT_EQ(g->OutDegree(v), 1u);
    EXPECT_EQ(g->InDegree(v), 0u);
  }
}

TEST(StarTest, BidirectionalAddsHubOut) {
  auto g = GenerateStar(6, /*bidirectional=*/true);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->OutDegree(0), 5u);
  EXPECT_EQ(g->InDegree(1), 1u);
}

TEST(CompleteTest, AllPairsConnected) {
  auto g = GenerateComplete(5);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_edges(), 20u);
  for (NodeId v = 0; v < 5; ++v) {
    EXPECT_EQ(g->OutDegree(v), 4u);
    EXPECT_EQ(g->InDegree(v), 4u);
  }
}

TEST(GridTest, EdgeCountFormula) {
  auto g = GenerateGrid(4, 5);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_nodes(), 20u);
  // Right edges: 4 rows * 4, down edges: 3 * 5.
  EXPECT_EQ(g->num_edges(), 16u + 15u);
}

// Parameterized determinism sweep across generator shapes/sizes.
class GeneratorDeterminism
    : public ::testing::TestWithParam<std::tuple<NodeId, EdgeId, uint64_t>> {};

TEST_P(GeneratorDeterminism, ChungLuReproducible) {
  const auto [n, m, seed] = GetParam();
  auto a = GenerateChungLu(n, m, 2.3, seed);
  auto b = GenerateChungLu(n, m, 2.3, seed);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->num_edges(), b->num_edges());
  for (NodeId v = 0; v < n; ++v) {
    EXPECT_EQ(a->InDegree(v), b->InDegree(v));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GeneratorDeterminism,
    ::testing::Values(std::make_tuple(100, 400, 1),
                      std::make_tuple(500, 2000, 2),
                      std::make_tuple(1000, 8000, 3),
                      std::make_tuple(64, 128, 4)));


TEST(RMatTest, NodeAndEdgeCounts) {
  auto g = GenerateRMat(/*scale=*/10, /*num_edges=*/8000, /*seed=*/3);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_nodes(), 1024u);
  EXPECT_EQ(g->num_edges(), 8000u);
  EXPECT_TRUE(g->Validate().ok());
}

TEST(RMatTest, DeterministicInSeed) {
  auto a = GenerateRMat(8, 2000, 5);
  auto b = GenerateRMat(8, 2000, 5);
  ASSERT_TRUE(a.ok() && b.ok());
  for (NodeId v = 0; v < a->num_nodes(); ++v) {
    ASSERT_EQ(a->OutDegree(v), b->OutDegree(v));
    ASSERT_EQ(a->InDegree(v), b->InDegree(v));
  }
}

TEST(RMatTest, SkewedDegreeDistribution) {
  // R-MAT concentrates edges in low-id quadrants: the max in-degree is
  // far above the mean, unlike an ER graph of the same size.
  auto g = GenerateRMat(12, 40000, 11);
  ASSERT_TRUE(g.ok());
  auto stats = g->ComputeDegreeStats();
  const double mean = static_cast<double>(g->num_edges()) / g->num_nodes();
  EXPECT_GT(stats.max_in_degree, 10 * mean);
}

TEST(RMatTest, RejectsBadParameters) {
  EXPECT_FALSE(GenerateRMat(0, 10, 1).ok());
  EXPECT_FALSE(GenerateRMat(31, 10, 1).ok());
  EXPECT_FALSE(GenerateRMat(8, 10, 1, /*a=*/0.5, /*b=*/0.3, /*c=*/0.3).ok());
  EXPECT_FALSE(GenerateRMat(2, 1000, 1).ok()) << "more edges than slots";
}

TEST(RMatTest, UndirectedIsSymmetric) {
  auto g = GenerateRMat(8, 1000, 9, 0.57, 0.19, 0.19, /*undirected=*/true);
  ASSERT_TRUE(g.ok());
  EXPECT_TRUE(g->is_symmetric());
  EXPECT_EQ(g->num_edges(), 2000u);
  for (NodeId v = 0; v < g->num_nodes(); ++v) {
    EXPECT_EQ(g->InDegree(v), g->OutDegree(v));
  }
}

TEST(WattsStrogatzTest, ZeroBetaIsRingLattice) {
  auto g = GenerateWattsStrogatz(20, 4, 0.0, 1);
  ASSERT_TRUE(g.ok());
  EXPECT_TRUE(g->Validate().ok());
  // Every node keeps exactly k undirected neighbors.
  for (NodeId v = 0; v < 20; ++v) {
    EXPECT_EQ(g->OutDegree(v), 4u);
    EXPECT_EQ(g->InDegree(v), 4u);
  }
  EXPECT_EQ(g->num_edges(), 20u * 4u);  // 2 * (n*k/2)
}

TEST(WattsStrogatzTest, RewiringPreservesEdgeCount) {
  auto g = GenerateWattsStrogatz(100, 6, 0.3, 7);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_edges(), 2u * (100u * 6u / 2u));
  EXPECT_TRUE(g->is_symmetric());
}

TEST(WattsStrogatzTest, FullRewireStillValid) {
  auto g = GenerateWattsStrogatz(60, 4, 1.0, 13);
  ASSERT_TRUE(g.ok());
  EXPECT_TRUE(g->Validate().ok());
  EXPECT_EQ(g->num_edges(), 2u * (60u * 4u / 2u));
}

TEST(WattsStrogatzTest, RejectsBadParameters) {
  EXPECT_FALSE(GenerateWattsStrogatz(3, 2, 0.1, 1).ok());   // n too small
  EXPECT_FALSE(GenerateWattsStrogatz(20, 3, 0.1, 1).ok());  // odd k
  EXPECT_FALSE(GenerateWattsStrogatz(20, 20, 0.1, 1).ok()); // k >= n
  EXPECT_FALSE(GenerateWattsStrogatz(20, 4, 1.5, 1).ok());  // beta > 1
}

TEST(StochasticBlockModelTest, DenseWithinSparseAcross) {
  auto g = GenerateStochasticBlockModel(200, 4, 0.3, 0.005, 21);
  ASSERT_TRUE(g.ok());
  EXPECT_TRUE(g->Validate().ok());
  // Count within- vs cross-block edges; the within rate must dominate.
  uint64_t within = 0, across = 0;
  for (NodeId v = 0; v < g->num_nodes(); ++v) {
    for (NodeId w : g->OutNeighbors(v)) {
      if (v / 50 == w / 50) ++within; else ++across;
    }
  }
  EXPECT_GT(within, across);
  // Expected within: 4 blocks * 50*49 * 0.3 = 2940; loose band.
  EXPECT_GT(within, 2000u);
  EXPECT_LT(within, 4000u);
}

TEST(StochasticBlockModelTest, ZeroCrossProbabilityDisconnectsBlocks) {
  auto g = GenerateStochasticBlockModel(100, 2, 0.2, 0.0, 5);
  ASSERT_TRUE(g.ok());
  for (NodeId v = 0; v < g->num_nodes(); ++v) {
    for (NodeId w : g->OutNeighbors(v)) {
      EXPECT_EQ(v / 50, w / 50) << "edge crosses a block";
    }
  }
}

TEST(StochasticBlockModelTest, FullDensityWithinBlock) {
  auto g = GenerateStochasticBlockModel(20, 2, 1.0, 0.0, 2);
  ASSERT_TRUE(g.ok());
  // p_in = 1: every within-block ordered pair is present.
  EXPECT_EQ(g->num_edges(), 2u * 10u * 9u);
}

TEST(StochasticBlockModelTest, RejectsBadParameters) {
  EXPECT_FALSE(GenerateStochasticBlockModel(1, 1, 0.5, 0.1, 1).ok());
  EXPECT_FALSE(GenerateStochasticBlockModel(10, 0, 0.5, 0.1, 1).ok());
  EXPECT_FALSE(GenerateStochasticBlockModel(10, 11, 0.5, 0.1, 1).ok());
  EXPECT_FALSE(GenerateStochasticBlockModel(10, 2, 1.5, 0.1, 1).ok());
}

}  // namespace
}  // namespace simpush
