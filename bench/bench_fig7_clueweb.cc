// Figure 7: the billion-node ClueWeb evaluation (stand-in), where only
// SimPush, PRSim and ProbeSim fit in memory (the paper excludes TSF,
// TopSim, READS and SLING at this scale). Each row carries all three
// panels: (a) error vs time, (b) precision vs time, (c) error vs memory.

#include "bench_common.h"

int main() {
  using namespace simpush;
  using namespace simpush::bench;

  std::printf("=== Figure 7: largest graph (ClueWeb stand-in) ===\n");

  auto spec = FindDataset("clueweb-sim");
  if (!spec.ok()) {
    std::fprintf(stderr, "missing clueweb-sim spec\n");
    return 1;
  }
  RunFigureForDataset(*spec,
                      PaperParameterSweep({"SimPush", "ProbeSim", "PRSim"}));
  return 0;
}
