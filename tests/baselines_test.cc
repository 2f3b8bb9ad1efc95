// Tests for the six baseline reimplementations: each must approximate
// exact SimRank on small graphs within its method-appropriate tolerance,
// expose correct index metadata, and reproduce the documented flaws
// (e.g. TSF overestimation).

#include <cmath>
#include <memory>

#include "baselines/eta_estimator.h"
#include "baselines/probesim.h"
#include "baselines/prsim.h"
#include "baselines/reads.h"
#include "baselines/sling.h"
#include "baselines/topsim.h"
#include "baselines/tsf.h"
#include "gtest/gtest.h"
#include "reference/graphs.h"
#include "test_util.h"
#include "walk/walker.h"

namespace simpush {
namespace {

constexpr double kSqrtC = 0.7745966692414834;

// Shared expectations for any algorithm instance.
void ExpectBasicContract(SingleSourceAlgorithm* algo, const Graph& g,
                         NodeId u) {
  ASSERT_TRUE(algo->Prepare().ok());
  auto result = algo->Query(u);
  ASSERT_TRUE(result.ok()) << algo->name() << ": "
                           << result.status().ToString();
  ASSERT_EQ(result->size(), g.num_nodes());
  EXPECT_DOUBLE_EQ((*result)[u], 1.0);
  for (double s : *result) {
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0 + 1e-9);
  }
  EXPECT_FALSE(algo->Query(g.num_nodes() + 5).ok());
}

TEST(EtaEstimatorTest, MatchesPairMeetingComplement) {
  Graph g = testing_util::MakeFixtureGraph();
  Rng rng(1);
  // η(w) = 1 - Pr[two walks from w meet]; for the fixture's node 0
  // (3 in-neighbors) compute the meeting probability by MC directly.
  Walker walker(g, kSqrtC);
  uint64_t meets = 0;
  const uint64_t trials = 200000;
  for (uint64_t i = 0; i < trials; ++i) {
    if (walker.PairWalkMeets(0, 0, &rng)) ++meets;
  }
  const double eta = EstimateEtaAllNodes(g, kSqrtC, 200000, 2)[0];
  EXPECT_NEAR(eta, 1.0 - double(meets) / trials, 0.01);
}

TEST(EtaEstimatorTest, DanglingNodeEtaIsOne) {
  Graph g = testing_util::MakeGraph(2, {{0, 1}});
  // Node 0 has no in-neighbors: walks stop at step 0, never meet again.
  EXPECT_DOUBLE_EQ(EstimateEtaAllNodes(g, kSqrtC, 1000, 3)[0], 1.0);
}

TEST(EtaEstimatorTest, SingleInNeighborLowEta) {
  // d_I(w) = 1: both walks take the same forced step; they meet with
  // probability c = √c·√c, so η <= 1 - c.
  auto g = GenerateCycle(8);
  ASSERT_TRUE(g.ok());
  const double eta = EstimateEtaAllNodes(*g, kSqrtC, 100000, 4)[0];
  EXPECT_NEAR(eta, 1.0 - 0.6, 0.01);
}

TEST(ProbeSimTest, ContractAndAccuracy) {
  Graph g = testing_util::MakeFixtureGraph();
  SimRankMatrix exact = testing_util::ExactSimRank(g);
  ProbeSimOptions options;
  options.epsilon = 0.05;
  options.max_walks = 8000;
  ProbeSim algo(g, options);
  ExpectBasicContract(&algo, g, 1);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    auto result = algo.Query(u);
    ASSERT_TRUE(result.ok());
    EXPECT_LE(testing_util::MaxError(*result, exact, u), 0.05)
        << "query " << u;
  }
}

TEST(ProbeSimTest, WalkCountFormula) {
  Graph g = testing_util::MakeFixtureGraph();
  ProbeSimOptions fine;
  fine.epsilon = 0.01;
  ProbeSimOptions coarse;
  coarse.epsilon = 0.1;
  EXPECT_GT(ProbeSim(g, fine).NumWalks(), ProbeSim(g, coarse).NumWalks());
  ProbeSimOptions capped = fine;
  capped.max_walks = 10;
  EXPECT_EQ(ProbeSim(g, capped).NumWalks(), 10u);
}

TEST(ProbeSimTest, IsIndexFree) {
  Graph g = testing_util::MakeFixtureGraph();
  ProbeSim algo(g, ProbeSimOptions{});
  EXPECT_TRUE(algo.index_free());
  EXPECT_EQ(algo.IndexBytes(), 0u);
}

TEST(TopSimTest, ContractAndCoarseAccuracy) {
  Graph g = testing_util::MakeFixtureGraph();
  SimRankMatrix exact = testing_util::ExactSimRank(g);
  TopSimOptions options;
  options.depth = 4;
  options.degree_threshold = 10000;
  options.trim_threshold = 1e-6;
  TopSim algo(g, options);
  ExpectBasicContract(&algo, g, 2);
  // TopSim has no first-meeting correction and truncates: repeated
  // meetings on the fixture's cycles are double counted, so expect only
  // coarse agreement (it is the weakest method in Fig. 4).
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    auto result = algo.Query(u);
    ASSERT_TRUE(result.ok());
    EXPECT_LE(testing_util::MaxError(*result, exact, u), 0.45);
  }
}

TEST(TopSimTest, DeeperIsMoreAccurate) {
  Graph g = testing_util::RandomGraph(100, 700, 301);
  SimRankMatrix exact = testing_util::ExactSimRank(g);
  TopSimOptions shallow;
  shallow.depth = 1;
  shallow.degree_threshold = 10000;
  TopSimOptions deep = shallow;
  deep.depth = 5;
  double err_shallow = 0, err_deep = 0;
  TopSim a(g, shallow);
  TopSim b(g, deep);
  for (NodeId u = 0; u < 10; ++u) {
    auto ra = a.Query(u);
    auto rb = b.Query(u);
    ASSERT_TRUE(ra.ok() && rb.ok());
    err_shallow += testing_util::MaxError(*ra, exact, u);
    err_deep += testing_util::MaxError(*rb, exact, u);
  }
  EXPECT_LE(err_deep, err_shallow + 1e-9);
}

TEST(SlingTest, ContractAccuracyAndIndex) {
  Graph g = testing_util::MakeFixtureGraph();
  SimRankMatrix exact = testing_util::ExactSimRank(g);
  SlingOptions options;
  options.epsilon = 0.02;
  options.eta_samples = 20000;
  Sling algo(g, options);
  ASSERT_TRUE(algo.Prepare().ok());
  EXPECT_GT(algo.IndexBytes(), 0u);
  EXPECT_GT(algo.PrepareSeconds(), 0.0);
  EXPECT_FALSE(algo.index_free());
  ExpectBasicContract(&algo, g, 3);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    auto result = algo.Query(u);
    ASSERT_TRUE(result.ok());
    EXPECT_LE(testing_util::MaxError(*result, exact, u), 0.08)
        << "query " << u;
  }
}

TEST(SlingTest, PrepareIsIdempotent) {
  Graph g = testing_util::MakeFixtureGraph();
  Sling algo(g, SlingOptions{});
  ASSERT_TRUE(algo.Prepare().ok());
  const size_t bytes = algo.IndexBytes();
  ASSERT_TRUE(algo.Prepare().ok());
  EXPECT_EQ(algo.IndexBytes(), bytes);
}

TEST(PRSimTest, ContractAccuracyAndHubs) {
  Graph g = testing_util::MakeFixtureGraph();
  SimRankMatrix exact = testing_util::ExactSimRank(g);
  PRSimOptions options;
  options.epsilon = 0.02;
  options.eta_samples = 20000;
  PRSim algo(g, options);
  ASSERT_TRUE(algo.Prepare().ok());
  EXPECT_GT(algo.NumHubs(), 0u);
  EXPECT_GT(algo.IndexBytes(), 0u);
  ExpectBasicContract(&algo, g, 4);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    auto result = algo.Query(u);
    ASSERT_TRUE(result.ok());
    EXPECT_LE(testing_util::MaxError(*result, exact, u), 0.08)
        << "query " << u;
  }
}

TEST(PRSimTest, HubCountDefaultsToSqrtN) {
  Graph g = testing_util::RandomGraph(100, 600, 303);
  PRSim algo(g, PRSimOptions{});
  ASSERT_TRUE(algo.Prepare().ok());
  EXPECT_EQ(algo.NumHubs(), 10u);
}

TEST(ReadsTest, ContractAndAccuracy) {
  Graph g = testing_util::MakeFixtureGraph();
  SimRankMatrix exact = testing_util::ExactSimRank(g);
  ReadsOptions options;
  options.num_walks = 4000;
  options.max_depth = 20;
  Reads algo(g, options);
  ASSERT_TRUE(algo.Prepare().ok());
  EXPECT_GT(algo.IndexBytes(), 0u);
  ExpectBasicContract(&algo, g, 5);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    auto result = algo.Query(u);
    ASSERT_TRUE(result.ok());
    // Paired-slot MC: tolerance ~ 3/sqrt(r) plus truncation bias.
    EXPECT_LE(testing_util::MaxError(*result, exact, u), 0.06)
        << "query " << u;
  }
}

TEST(ReadsTest, MoreWalksMoreAccurate) {
  Graph g = testing_util::RandomGraph(80, 500, 305);
  SimRankMatrix exact = testing_util::ExactSimRank(g);
  ReadsOptions small;
  small.num_walks = 50;
  small.max_depth = 10;
  ReadsOptions big = small;
  big.num_walks = 3000;
  Reads a(g, small);
  Reads b(g, big);
  ASSERT_TRUE(a.Prepare().ok());
  ASSERT_TRUE(b.Prepare().ok());
  double err_small = 0, err_big = 0;
  for (NodeId u = 0; u < 10; ++u) {
    auto ra = a.Query(u);
    auto rb = b.Query(u);
    ASSERT_TRUE(ra.ok() && rb.ok());
    err_small += testing_util::MaxError(*ra, exact, u);
    err_big += testing_util::MaxError(*rb, exact, u);
  }
  EXPECT_LT(err_big, err_small);
}

TEST(TsfTest, ContractAndOverestimationFlaw) {
  Graph g = testing_util::MakeFixtureGraph();
  SimRankMatrix exact = testing_util::ExactSimRank(g);
  TsfOptions options;
  options.num_one_way_graphs = 400;
  options.reuse_per_graph = 20;
  Tsf algo(g, options);
  ASSERT_TRUE(algo.Prepare().ok());
  EXPECT_GT(algo.IndexBytes(), 0u);
  ExpectBasicContract(&algo, g, 6);
  // TSF counts repeated meetings, so its aggregate estimate tends to
  // exceed exact SimRank mass (the flaw [33] documents). Check the sum
  // over a query where the fixture has cycles.
  double sum_estimate = 0, sum_exact = 0, sum_error = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    auto result = algo.Query(u);
    ASSERT_TRUE(result.ok());
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (v == u) continue;
      sum_estimate += (*result)[v];
      sum_exact += exact(u, v);
    }
    sum_error += testing_util::MaxError(*result, exact, u);
  }
  EXPECT_GT(sum_estimate, sum_exact * 0.8);  // Not an underestimator.
  EXPECT_LE(sum_error / g.num_nodes(), 0.35);  // Coarse but sane.
}

}  // namespace
}  // namespace simpush
