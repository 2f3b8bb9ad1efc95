// Statistical test of Source-Push level detection (Algorithm 2, Lemma 5):
// with the derived walk count N, the detected level L reaches the
// deepest exact attention level L_A, and every exact attention
// occurrence at a level <= L is found, with probability >= 1 - δ. The
// second half is what Source-Push's demand levels rest on: levels L-1
// and L are evaluated only at nodes whose walk count reached the
// threshold, so an occurrence there whose count fell short is missed.
//
// δ = 1e-4 could not be falsified by any affordable number of trials,
// so the trials run at δ = 0.2, where N is small enough that a bound
// one notch too loose would show. The seeds are fixed, so the counts
// are deterministic and the test cannot flake.

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/generators.h"
#include "gtest/gtest.h"
#include "reference/exact_hitting.h"
#include "reference/graphs.h"
#include "simpush/options.h"
#include "simpush/source_push.h"
#include "simpush/workspace.h"

namespace simpush {
namespace {

constexpr double kEpsilon = 0.05;
constexpr double kDelta = 0.2;
constexpr uint64_t kSeedsPerSource = 4;

struct ZooGraph {
  std::string name;
  Graph graph;
};

std::vector<ZooGraph> Zoo() {
  std::vector<ZooGraph> zoo;
  const auto add = [&](const char* name, StatusOr<Graph> graph) {
    EXPECT_TRUE(graph.ok()) << name << ": " << graph.status().ToString();
    if (graph.ok()) zoo.push_back({name, std::move(graph).value()});
  };
  add("chung_lu", GenerateChungLu(300, 1800, 2.2, 11));
  add("erdos_renyi", GenerateErdosRenyi(300, 1800, 12));
  add("barabasi_albert", GenerateBarabasiAlbert(300, 3, 13));
  add("grid_12x12", GenerateGrid(12, 12));
  add("rmat_scale8", GenerateRMat(8, 1800, 14));
  add("star", GenerateStar(300, /*bidirectional=*/true));
  return zoo;
}

// Exact attention occurrences by level: (level, node) with exact
// h >= ε_h. The propagated h of an occurrence within float rounding of
// ε_h may fall on either side, so those count as not required.
using Occurrences = std::vector<std::vector<NodeId>>;
Occurrences ExactAttention(const Graph& graph, NodeId u,
                           const DerivedParams& params) {
  const auto exact =
      ExactHittingProbabilities(graph, u, params.l_star, params.sqrt_c);
  const double required = params.eps_h * (1.0 + 1e-9);
  Occurrences occurrences(exact.size());
  for (uint32_t level = 1; level < exact.size(); ++level) {
    for (NodeId v = 0; v < exact[level].size(); ++v) {
      if (exact[level][v] >= required) occurrences[level].push_back(v);
    }
  }
  return occurrences;
}

// Deepest level holding an occurrence; 0 if none.
uint32_t DeepestLevel(const Occurrences& occurrences) {
  uint32_t deepest = 0;
  for (uint32_t level = 1; level < occurrences.size(); ++level) {
    if (!occurrences[level].empty()) deepest = level;
  }
  return deepest;
}

// True when G_u lacks an exact occurrence at a level <= its L.
bool MissesAttention(const SourceGraph& gu, const Occurrences& occurrences) {
  for (uint32_t level = 1;
       level <= gu.max_level() && level < occurrences.size(); ++level) {
    for (const NodeId v : occurrences[level]) {
      AttentionId id;
      if (!gu.LookupAttention(level, v, &id)) return true;
    }
  }
  return false;
}

struct TrialCounts {
  uint64_t trials = 0;
  uint64_t failures = 0;  // Detected L < L_A, or an occurrence missed.
};

// Every source with L_A >= 2 (L >= 1 always holds and level 1 is always
// whole, so L_A = 1 cannot fail), kSeedsPerSource fixed seeds each.
TrialCounts RunTrials(const std::vector<ZooGraph>& zoo,
                      const SimPushOptions& options) {
  const DerivedParams params = ComputeDerivedParams(options);
  TrialCounts counts;
  QueryWorkspace workspace;
  SourceGraph gu;
  for (const ZooGraph& entry : zoo) {
    for (NodeId u = 0; u < entry.graph.num_nodes(); ++u) {
      const Occurrences occurrences = ExactAttention(entry.graph, u, params);
      const uint32_t deepest = DeepestLevel(occurrences);
      if (deepest < 2) continue;
      for (uint64_t seed = 0; seed < kSeedsPerSource; ++seed) {
        Rng rng(seed * 1000003 + u);
        SourcePushStats stats;
        const Status status = SourcePushInto(entry.graph, u, options, params,
                                             &rng, &workspace, &gu, &stats);
        EXPECT_TRUE(status.ok()) << entry.name << " u=" << u;
        ++counts.trials;
        if (stats.detected_level < deepest ||
            MissesAttention(gu, occurrences)) {
          ++counts.failures;
        }
      }
    }
  }
  return counts;
}

SimPushOptions TrialOptions() {
  SimPushOptions options;
  options.epsilon = kEpsilon;
  options.delta = kDelta;
  return options;
}

// A count of Binomial(trials, δ) exceeds mean + 6σ with probability
// below 1e-8: the failure count of a detector that meets δ per trial
// stays under it.
double BinomialUpperBound(uint64_t trials, double p) {
  const double mean = static_cast<double>(trials) * p;
  return mean + 6.0 * std::sqrt(mean * (1.0 - p));
}

TEST(DetectionAccuracyTest, DerivedWalkCountMeetsDelta) {
  const std::vector<ZooGraph> zoo = Zoo();
  ASSERT_EQ(zoo.size(), 6u);
  const TrialCounts counts = RunTrials(zoo, TrialOptions());
  ASSERT_GT(counts.trials, 1000u);
  EXPECT_LT(static_cast<double>(counts.failures),
            BinomialUpperBound(counts.trials, kDelta))
      << counts.failures << " of " << counts.trials << " trials";
  RecordProperty("trials", std::to_string(counts.trials));
  RecordProperty("failures", std::to_string(counts.failures));
}

TEST(DetectionAccuracyTest, HarnessSeesTooFewWalks) {
  // The same trials with N/16 walks: the harness must record misses,
  // or a passing DerivedWalkCountMeetsDelta would prove nothing.
  const std::vector<ZooGraph> zoo = Zoo();
  SimPushOptions options = TrialOptions();
  options.walk_budget_cap = ComputeDerivedParams(options).num_walks / 16;
  const TrialCounts counts = RunTrials(zoo, options);
  EXPECT_GT(counts.failures, 0u) << "of " << counts.trials << " trials";
  RecordProperty("failures", std::to_string(counts.failures));
}

}  // namespace
}  // namespace simpush
