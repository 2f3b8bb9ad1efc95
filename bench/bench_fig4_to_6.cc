// Figures 4-6: AvgError@50 vs. query time (Fig. 4), Precision@50 vs.
// query time (Fig. 5) and AvgError@50 vs. memory (Fig. 6), per dataset,
// all methods, five parameter settings each. Every (dataset, method,
// setting) is evaluated once and printed as one row with all three
// figures' columns. Small stand-ins run every method; large
// stand-ins run the scalable subset (SimPush / ProbeSim / PRSim), the
// others being excluded by the same time/memory budgeting rule the
// paper applies (§5.2).

#include "bench_common.h"

int main() {
  using namespace simpush;
  using namespace simpush::bench;

  std::printf("=== Figures 4-6: error, precision, memory vs query time ===\n");

  const auto all = PaperParameterSweep();
  const auto scalable = LargeGraphSweep();

  for (const DatasetSpec& spec : AllDatasets()) {
    if (spec.name == "clueweb-sim") continue;  // Figure 7's dataset.
    const bool small = !spec.large;
    if (QuickMode() && spec.large) continue;
    RunFigureForDataset(spec, small ? all : scalable);
  }
  return 0;
}
