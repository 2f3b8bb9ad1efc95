// Tests for the evaluation substrate: dataset registry, ground-truth
// builders, query generation and the method harness.

#include <bit>
#include <cstdint>
#include <memory>

#include "baselines/probesim.h"
#include "eval/datasets.h"
#include "eval/ground_truth.h"
#include "eval/harness.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace simpush {
namespace {

TEST(DatasetsTest, RegistryHasNineEntries) {
  EXPECT_EQ(AllDatasets().size(), 9u);
  EXPECT_EQ(SmallDatasets().size(), 4u);
}

TEST(DatasetsTest, LookupByEitherName) {
  auto by_sim = FindDataset("dblp-sim");
  auto by_paper = FindDataset("DBLP");
  ASSERT_TRUE(by_sim.ok());
  ASSERT_TRUE(by_paper.ok());
  EXPECT_EQ(by_sim->name, by_paper->name);
  EXPECT_FALSE(FindDataset("no-such-graph").ok());
}

TEST(DatasetsTest, BuildSmallestStandIn) {
  auto spec = FindDataset("in-2004-sim");
  ASSERT_TRUE(spec.ok());
  auto graph = BuildDataset(*spec);
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->num_nodes(), spec->num_nodes);
  EXPECT_TRUE(graph->Validate().ok());
  // Edge count within 2% of target (Chung-Lu rejection sampling is exact
  // unless saturated).
  EXPECT_NEAR(double(graph->num_edges()), double(spec->target_edges),
              0.02 * double(spec->target_edges));
}

TEST(DatasetsTest, UndirectedSpecsAreSymmetric) {
  auto spec = FindDataset("dblp-sim");
  ASSERT_TRUE(spec.ok());
  ASSERT_TRUE(spec->undirected);
  auto graph = BuildDataset(*spec);
  ASSERT_TRUE(graph.ok());
  EXPECT_TRUE(graph->is_symmetric());
}

TEST(QuerySetTest, DeterministicAndInRange) {
  Graph g = testing_util::RandomGraph(50, 300, 401);
  auto a = GenerateQuerySet(g, 10, 5);
  auto b = GenerateQuerySet(g, 10, 5);
  EXPECT_EQ(a, b);
  for (NodeId q : a) EXPECT_LT(q, g.num_nodes());
  auto c = GenerateQuerySet(g, 10, 6);
  EXPECT_NE(a, c);
}

TEST(GroundTruthTest, ExactMatchesPowerMethod) {
  Graph g = testing_util::MakeFixtureGraph();
  SimRankMatrix exact = testing_util::ExactSimRank(g);
  GroundTruthOptions options;
  options.k = 5;
  auto truth = ExactGroundTruth(g, 0, options);
  ASSERT_TRUE(truth.ok());
  EXPECT_TRUE(truth->exact);
  ASSERT_LE(truth->topk.size(), 5u);
  for (size_t i = 1; i < truth->topk.size(); ++i) {
    EXPECT_GE(truth->topk[i - 1].second, truth->topk[i].second);
  }
  for (const auto& [node, value] : truth->topk) {
    EXPECT_NEAR(value, exact(0, node), 1e-9);
    EXPECT_NE(node, 0u);
  }
}

TEST(GroundTruthTest, ExactRejectsLargeGraph) {
  Graph g = testing_util::RandomGraph(100, 500, 403);
  GroundTruthOptions options;
  options.exact_node_limit = 50;
  EXPECT_FALSE(ExactGroundTruth(g, 0, options).ok());
}

TEST(GroundTruthTest, PooledRanksCandidates) {
  Graph g = testing_util::MakeFixtureGraph();
  SimRankMatrix exact = testing_util::ExactSimRank(g);
  GroundTruthOptions options;
  options.k = 3;
  options.mc_samples_per_pair = 60000;
  // Candidate pool from two fake "methods".
  std::vector<std::vector<NodeId>> candidates{{1, 2, 3}, {2, 4, 5}};
  auto truth = PooledGroundTruth(g, 0, candidates, options);
  ASSERT_TRUE(truth.ok());
  EXPECT_FALSE(truth->exact);
  EXPECT_LE(truth->topk.size(), 3u);
  // MC values close to exact for pooled nodes.
  for (const auto& [node, value] : truth->topk) {
    EXPECT_NEAR(value, exact(0, node), 0.02);
  }
}

TEST(HarnessTest, PaperSweepShapes) {
  auto all = PaperParameterSweep();
  EXPECT_EQ(all.size(), 35u);  // 7 methods x 5 settings.
  auto just_simpush = PaperParameterSweep({"SimPush"});
  EXPECT_EQ(just_simpush.size(), 5u);
  for (const auto& setting : just_simpush) {
    EXPECT_EQ(setting.method, "SimPush");
  }
  auto two = PaperParameterSweep({"READS", "TSF"});
  EXPECT_EQ(two.size(), 10u);
}

TEST(HarnessTest, EvaluateSimPushOnFixture) {
  Graph g = testing_util::MakeFixtureGraph();
  HarnessOptions options;
  options.k = 5;
  auto queries = GenerateQuerySet(g, 4, 17);
  auto truths = BuildGroundTruths(g, queries, {}, options);
  ASSERT_TRUE(truths.ok());
  auto sweep = PaperParameterSweep({"SimPush"});
  auto row = EvaluateMethod(g, sweep[1], queries, *truths);
  ASSERT_TRUE(row.ok()) << row.status().ToString();
  EXPECT_EQ(row->method, "SimPush");
  EXPECT_EQ(row->queries, 4u);
  EXPECT_LE(row->avg_error_at_k, 0.05);
  EXPECT_GE(row->avg_precision_at_k, 0.6);
  EXPECT_GT(row->avg_query_seconds, 0.0);
  EXPECT_EQ(row->index_bytes, 0u);
}

TEST(HarnessTest, EvaluateIndexedMethodReportsIndex) {
  Graph g = testing_util::MakeFixtureGraph();
  HarnessOptions options;
  options.k = 5;
  auto queries = GenerateQuerySet(g, 2, 19);
  auto truths = BuildGroundTruths(g, queries, {}, options);
  ASSERT_TRUE(truths.ok());
  auto sweep = PaperParameterSweep({"READS"});
  auto row = EvaluateMethod(g, sweep[2], queries, *truths);
  ASSERT_TRUE(row.ok());
  EXPECT_GT(row->index_bytes, 0u);
  EXPECT_GT(row->prepare_seconds, 0.0);
}

// One evaluation per (dataset, method, setting) stands in for every
// figure column only if a repeat evaluation reproduces it bit for bit:
// pooled ground truths and every method's error, precision and index
// size must be pure functions of (graph, queries, options).
TEST(HarnessTest, EvaluateMethodRepeatsBitForBit) {
  Graph g = testing_util::MakeFixtureGraph();
  HarnessOptions options;
  options.k = 5;
  options.truth.exact_node_limit = g.num_nodes() - 1;  // Force pooling.
  options.truth.mc_samples_per_pair = 2000;
  auto queries = GenerateQuerySet(g, 3, 23);
  const std::vector<MethodSetting> pool{PaperParameterSweep({"SimPush"})[1],
                                        PaperParameterSweep({"ProbeSim"})[2]};

  auto truths = BuildGroundTruths(g, queries, pool, options);
  auto again = BuildGroundTruths(g, queries, pool, options);
  ASSERT_TRUE(truths.ok()) << truths.status().ToString();
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  ASSERT_EQ(truths->size(), again->size());
  for (size_t i = 0; i < truths->size(); ++i) {
    EXPECT_FALSE((*truths)[i].exact);
    EXPECT_FALSE((*truths)[i].topk.empty());
    ASSERT_EQ((*truths)[i].topk.size(), (*again)[i].topk.size());
    for (size_t j = 0; j < (*truths)[i].topk.size(); ++j) {
      EXPECT_EQ((*truths)[i].topk[j].first, (*again)[i].topk[j].first);
      EXPECT_EQ(std::bit_cast<uint64_t>((*truths)[i].topk[j].second),
                std::bit_cast<uint64_t>((*again)[i].topk[j].second));
    }
  }

  for (const MethodSetting& setting : PaperParameterSweep()) {
    SCOPED_TRACE(setting.method + " " + setting.setting);
    auto first = EvaluateMethod(g, setting, queries, *truths);
    auto second = EvaluateMethod(g, setting, queries, *truths);
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    ASSERT_TRUE(second.ok()) << second.status().ToString();
    EXPECT_EQ(std::bit_cast<uint64_t>(first->avg_error_at_k),
              std::bit_cast<uint64_t>(second->avg_error_at_k));
    EXPECT_EQ(std::bit_cast<uint64_t>(first->avg_precision_at_k),
              std::bit_cast<uint64_t>(second->avg_precision_at_k));
    EXPECT_EQ(first->index_bytes, second->index_bytes);
  }
}

}  // namespace
}  // namespace simpush
