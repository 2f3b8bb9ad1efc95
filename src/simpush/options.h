// Configuration for the SimPush engine and the parameters derived from
// it (ε_h, L*, walk counts) exactly as defined in the paper.

#ifndef SIMPUSH_SIMPUSH_OPTIONS_H_
#define SIMPUSH_SIMPUSH_OPTIONS_H_

#include <cstdint>

#include "common/status.h"

namespace simpush {

/// User-facing knobs of Algorithm 1.
struct SimPushOptions {
  /// SimRank decay factor c (the paper fixes c = 0.6).
  double decay = 0.6;
  /// Absolute error threshold ε of Definition 1.
  double epsilon = 0.02;
  /// Failure probability δ of Definition 1 (paper fixes 1e-4).
  double delta = 1e-4;
  /// Seed for the level-detection walks; each query derives its own
  /// stream from (seed, query node).
  uint64_t seed = 42;

  /// Optional cap on the number of level-detection √c-walks. 0 means
  /// "run the derived count" (DerivedParams::num_walks), which carries
  /// the δ guarantee; a cap below it gives that guarantee up. The cap
  /// only affects the adaptive choice of L (never the pushed
  /// probabilities). At c = 0.6, δ = 1e-4 the derived count is 26 441
  /// walks at ε = 0.05 and 69 879 at ε = 0.02.
  uint64_t walk_budget_cap = 0;

  /// Ablation: when false, skip walk-based level detection and always
  /// explore L* levels.
  bool use_level_detection = true;
  /// Ablation: when false, set every γ^(ℓ)(w) = 1 (no last-meeting
  /// correction), which overestimates SimRank.
  bool use_gamma_correction = true;

  /// Validates ranges (0 < c < 1, 0 < ε < 1, 0 < δ < 1). NaN fails
  /// every range check (it is not "in range" for any of them), so a
  /// NaN smuggled in through string parsing is rejected here.
  Status Validate() const;
};

/// Parameters derived from SimPushOptions; computed once per engine.
struct DerivedParams {
  double sqrt_c = 0;        ///< √c.
  double eps_h = 0;         ///< ε_h = (1-√c)/(3√c)·ε  (Lemma 4).
  uint32_t l_star = 0;      ///< L* = ⌊log_{1/√c}(1/ε_h)⌋  (Lemma 2).
  /// N = ⌈min(2/ε_h, 8)·ln(1/((1-√c)·ε_h·δ))/ε_h⌉: the smaller of the
  /// paper's Hoeffding count and the Chernoff count (Alg 2, Lemma 5;
  /// derivation in options.cc).
  uint64_t num_walks = 0;
  uint64_t level_count_threshold = 0;  ///< ⌈N·ε_h/2⌉ (Lemma 5).
  uint64_t max_attention = 0;  ///< ⌊√c/((1-√c)·ε_h)⌋ (Lemma 2).
};

/// Computes all derived parameters (applying walk_budget_cap if set).
DerivedParams ComputeDerivedParams(const SimPushOptions& options);

}  // namespace simpush

#endif  // SIMPUSH_SIMPUSH_OPTIONS_H_
