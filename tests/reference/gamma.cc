#include "reference/gamma.h"

#include <vector>

namespace simpush {

double ReferenceGamma(const SourceGraph& gu, const HittingTable& hitting,
                      AttentionId id) {
  const auto& atts = gu.attention_nodes();
  const AttentionNode& w = atts[id];
  // rho[x] = ρ^(i)(w, x), filled level by level from ℓ+1 down to L.
  std::vector<double> rho(atts.size(), 0.0);
  double gamma = 1.0;
  for (uint32_t level = w.level + 1; level <= gu.max_level(); ++level) {
    for (const AttentionId x : gu.AttentionOnLevel(level)) {
      // Both walks at x after i = level - ℓ steps ...
      const double h = hitting.Probability(w.level, w.node, x);
      double value = h * h;
      // ... less those that first met at a shallower y (Eq. 11).
      for (uint32_t mid = w.level + 1; mid < level; ++mid) {
        for (const AttentionId y : gu.AttentionOnLevel(mid)) {
          const double hy = hitting.Probability(mid, atts[y].node, x);
          value -= rho[y] * hy * hy;
        }
      }
      rho[x] = value;
      gamma -= value;  // Eq. 9.
    }
  }
  return gamma;
}

}  // namespace simpush
