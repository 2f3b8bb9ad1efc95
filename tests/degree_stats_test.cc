// Unit tests for degree histograms, power-law fitting, and Gini.

#include "graph/degree_stats.h"

#include <cmath>

#include "graph/generators.h"
#include "gtest/gtest.h"
#include "reference/graphs.h"

namespace simpush {
namespace {

TEST(DegreeHistogramTest, StarGraphInDegrees) {
  auto star = GenerateStar(10);  // spokes 1..9 -> hub 0
  ASSERT_TRUE(star.ok());
  auto histogram = ComputeDegreeHistogram(*star, DegreeKind::kIn);
  // Hub has in-degree 9; the nine spokes have in-degree 0.
  ASSERT_EQ(histogram.degrees.size(), 2u);
  EXPECT_EQ(histogram.degrees[0], 0u);
  EXPECT_EQ(histogram.counts[0], 9u);
  EXPECT_EQ(histogram.degrees[1], 9u);
  EXPECT_EQ(histogram.counts[1], 1u);
  EXPECT_EQ(histogram.num_nodes, 10u);
}

TEST(DegreeHistogramTest, CycleIsRegular) {
  auto cycle = GenerateCycle(25);
  ASSERT_TRUE(cycle.ok());
  for (auto kind : {DegreeKind::kIn, DegreeKind::kOut}) {
    auto histogram = ComputeDegreeHistogram(*cycle, kind);
    ASSERT_EQ(histogram.degrees.size(), 1u);
    EXPECT_EQ(histogram.degrees[0], 1u);
    EXPECT_EQ(histogram.counts[0], 25u);
  }
}

TEST(PowerLawFitTest, RecoversChungLuExponent) {
  // Chung-Lu with gamma = 2.5 should fit close to 2.5 on the in-degree
  // tail. Wide tolerance: finite-size effects are real at n = 20k.
  auto graph = GenerateChungLu(20000, 120000, 2.5, /*seed=*/17);
  ASSERT_TRUE(graph.ok());
  auto histogram = ComputeDegreeHistogram(*graph, DegreeKind::kIn);
  auto fit = FitPowerLaw(histogram);
  ASSERT_TRUE(fit.ok());
  EXPECT_GT(fit->alpha, 1.8);
  EXPECT_LT(fit->alpha, 3.5);
  EXPECT_LT(fit->ks_distance, 0.2);
  EXPECT_GE(fit->tail_nodes, 50u);
}

TEST(PowerLawFitTest, ErdosRenyiFitsWorseThanChungLu) {
  // ER degree tails are Poisson, not power-law: the fitted exponent is
  // much steeper than a web-graph exponent.
  auto er = GenerateErdosRenyi(20000, 120000, /*seed=*/17);
  ASSERT_TRUE(er.ok());
  auto er_fit =
      FitPowerLaw(ComputeDegreeHistogram(*er, DegreeKind::kIn));
  ASSERT_TRUE(er_fit.ok());
  EXPECT_GT(er_fit->alpha, 3.5) << "Poisson tail decays super-polynomially";
}

TEST(PowerLawFitTest, EmptyHistogramRejected) {
  DegreeHistogram empty;
  auto fit = FitPowerLaw(empty);
  EXPECT_FALSE(fit.ok());
  EXPECT_EQ(fit.status().code(), StatusCode::kInvalidArgument);
}

TEST(PowerLawFitTest, TooFewTailNodesRejected) {
  auto cycle = GenerateCycle(10);
  ASSERT_TRUE(cycle.ok());
  auto histogram = ComputeDegreeHistogram(*cycle, DegreeKind::kIn);
  auto fit = FitPowerLaw(histogram, /*min_tail_nodes=*/50);
  EXPECT_FALSE(fit.ok());
}

TEST(GiniTest, RegularGraphIsZero) {
  auto cycle = GenerateCycle(40);
  ASSERT_TRUE(cycle.ok());
  auto histogram = ComputeDegreeHistogram(*cycle, DegreeKind::kIn);
  EXPECT_NEAR(DegreeGini(histogram), 0.0, 1e-9);
}

TEST(GiniTest, StarIsNearOne) {
  auto star = GenerateStar(1000);
  ASSERT_TRUE(star.ok());
  auto histogram = ComputeDegreeHistogram(*star, DegreeKind::kIn);
  EXPECT_GT(DegreeGini(histogram), 0.99);
}

TEST(GiniTest, SkewOrderingMatchesIntuition) {
  // Power-law degree sequences are more unequal than ER at equal m.
  auto cl = GenerateChungLu(5000, 30000, 2.3, /*seed=*/9);
  auto er = GenerateErdosRenyi(5000, 30000, /*seed=*/9);
  ASSERT_TRUE(cl.ok());
  ASSERT_TRUE(er.ok());
  const double gini_cl =
      DegreeGini(ComputeDegreeHistogram(*cl, DegreeKind::kIn));
  const double gini_er =
      DegreeGini(ComputeDegreeHistogram(*er, DegreeKind::kIn));
  EXPECT_GT(gini_cl, gini_er);
}

}  // namespace
}  // namespace simpush
