#include "simpush/last_meeting.h"

#include <algorithm>

#include "simpush/workspace.h"

namespace simpush {

namespace {

// Eq. 9-11 for one attention occurrence, one forward sweep over levels:
//   ρ at level ℓ+i starts from h̃(i)(w,·)² (the meeting probability) and
//   subtracts every earlier carrier's expansion; each finalized carrier
//   expands its own hitting vector exactly once.
double GammaFor(const SourceGraph& gu, const HittingTable& hitting,
                AttentionId id, GammaScratch* scratch) {
  const auto& atts = gu.attention_nodes();
  const AttentionNode& w = atts[id];
  const uint32_t level = w.level;
  const uint32_t max_level = gu.max_level();
  if (level >= max_level) return 1.0;

  const HittingVector from_w = hitting.VectorAt(level, w.node);
  if (from_w.empty()) return 1.0;
  scratch->Prepare(gu.num_attention(), max_level);

  double gamma = 1.0;
  for (uint32_t target_level = level + 1; target_level <= max_level;
       ++target_level) {
    scratch->touched.clear();
    // Base term: h̃(i)(w, t)² for targets on this level.
    for (const auto& [target, prob] : from_w) {
      if (atts[target].level != target_level) continue;
      if (scratch->acc[target] == 0.0) scratch->touched.push_back(target);
      scratch->acc[target] += prob * prob;
    }
    // Subtractions emitted by shallower carriers (Eq. 11).
    for (const auto& [target, amount] : scratch->pending[target_level]) {
      if (scratch->acc[target] == 0.0) scratch->touched.push_back(target);
      scratch->acc[target] -= amount;
    }
    // Finalize ρ for this level; expand each carrier once.
    for (AttentionId target : scratch->touched) {
      const double rho = scratch->acc[target];
      scratch->acc[target] = 0.0;
      if (rho == 0.0) continue;
      gamma -= rho;  // Eq. 9.
      const AttentionNode& mid = atts[target];
      for (const auto& [deeper, prob] : hitting.VectorAt(target_level,
                                                         mid.node)) {
        if (deeper == target) continue;  // Self entry: i - j = 0.
        scratch->pending[atts[deeper].level].emplace_back(
            deeper, rho * prob * prob);
      }
    }
  }
  return std::clamp(gamma, 0.0, 1.0);
}

}  // namespace

Status ComputeLastMeetingProbabilities(const SourceGraph& gu,
                                       const HittingTable& hitting,
                                       QueryWorkspace* workspace,
                                       std::vector<double>* gamma,
                                       const CancelToken* cancel) {
  gamma->assign(gu.num_attention(), 1.0);
  for (AttentionId id = 0; id < gu.num_attention(); ++id) {
    // Cancellation stride over attention occurrences; a fired token
    // leaves `gamma` partial and the caller discards it.
    if ((id & (kCancelCheckStride - 1)) == 0) {
      SIMPUSH_RETURN_NOT_OK(CheckCancel(cancel));
    }
    (*gamma)[id] = GammaFor(gu, hitting, id, &workspace->gamma_scratch);
  }
  return Status::OK();
}

}  // namespace simpush
