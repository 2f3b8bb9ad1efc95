#include "simpush/options.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

namespace simpush {

Status SimPushOptions::Validate() const {
  // Each range check is written as !(in range) so that NaN — for which
  // every comparison is false — is rejected rather than slipping
  // through a `x <= 0.0 || x >= 1.0` pair and poisoning the derived
  // parameters. NaN reaches here from untrusted inputs ("nan" parses on
  // the CLI; defensive for any future JSON number path).
  if (!(decay > 0.0 && decay < 1.0)) {
    return Status::InvalidArgument("decay must be in (0,1)");
  }
  if (!(epsilon > 0.0 && epsilon < 1.0)) {
    return Status::InvalidArgument("epsilon must be in (0,1)");
  }
  if (!(delta > 0.0 && delta < 1.0)) {
    return Status::InvalidArgument("delta must be in (0,1)");
  }
  return Status::OK();
}

DerivedParams ComputeDerivedParams(const SimPushOptions& options) {
  DerivedParams p;
  p.sqrt_c = std::sqrt(options.decay);
  p.eps_h = (1.0 - p.sqrt_c) / (3.0 * p.sqrt_c) * options.epsilon;

  // L* = floor(log_{1/sqrt_c}(1/eps_h)): beyond L* every hitting
  // probability is below eps_h (Lemma 2).
  p.l_star = static_cast<uint32_t>(
      std::floor(std::log(1.0 / p.eps_h) / std::log(1.0 / p.sqrt_c)));
  p.l_star = std::max<uint32_t>(p.l_star, 1);

  // Walk count for level detection (Algorithm 2 line 2 / Lemma 5).
  //
  // Lemma 5 needs every attention occurrence (level ℓ, node w with
  // h = h^(ℓ)(u,w) >= ε_h) to reach the count threshold N·ε_h/2. Its
  // count X is Binomial(N, h), so μ = N·h >= N·ε_h, and one occurrence
  // fails with probability P(X < N·ε_h/2) <= P(X <= μ/2). Two tail
  // bounds cap that at δ' = (1-√c)·ε_h·δ:
  //   Hoeffding (the paper): e^(-N·ε_h²/2) <= δ'  ⟸  N >= 2·ln(1/δ')/ε_h²;
  //   Chernoff, multiplicative lower tail P(X <= μ/2) <= e^(-μ/8):
  //                          e^(-N·ε_h/8) <= δ'   ⟸  N >= 8·ln(1/δ')/ε_h.
  // Both are valid, so N is the smaller one: Chernoff below ε_h = 1/4
  // (every practical ε), Hoeffding above. The 1/((1-√c)·ε_h) union
  // factor is the paper's bound on the number of attention occurrences
  // (Lemma 2). Detecting L only needs the deepest occurrence, but keeping
  // the factor keeps Lemma 5's statement — all occurrences pass at once
  // with probability >= 1-δ — so the swap is one tail bound for another
  // inside the paper's proof. At c=0.6, δ=1e-4 this is 26 441 walks at
  // ε=0.05 against Hoeffding's 1 362 918.
  //
  // Both counts stay in double until the saturating cast: for ε <= ~1e-8
  // the Hoeffding count exceeds 2^64, where a plain cast is undefined.
  const double log_term =
      std::log(1.0 / ((1.0 - p.sqrt_c) * p.eps_h * options.delta));
  const double hoeffding = 2.0 * log_term / (p.eps_h * p.eps_h);
  const double chernoff = 8.0 * log_term / p.eps_h;
  const double walks = std::ceil(std::max(std::min(hoeffding, chernoff), 1.0));
  constexpr double kTwoTo64 = 18446744073709551616.0;
  p.num_walks = walks >= kTwoTo64 ? std::numeric_limits<uint64_t>::max()
                                  : static_cast<uint64_t>(walks);
  if (options.walk_budget_cap > 0) {
    p.num_walks = std::min(p.num_walks, options.walk_budget_cap);
  }
  // A node's empirical hitting probability at level l must reach eps_h/2
  // for l to be retained. X < ⌈N·ε_h/2⌉ iff X < N·ε_h/2 for integer X,
  // so the rounded threshold fails exactly when the bound above says.
  // Under a walk_budget_cap below the derived N the threshold still
  // scales with the walks actually run, but the δ guarantee is gone.
  p.level_count_threshold = static_cast<uint64_t>(
      std::ceil(static_cast<double>(p.num_walks) * p.eps_h / 2.0));
  p.level_count_threshold = std::max<uint64_t>(p.level_count_threshold, 1);

  p.max_attention = static_cast<uint64_t>(
      std::floor(p.sqrt_c / ((1.0 - p.sqrt_c) * p.eps_h)));
  return p;
}

}  // namespace simpush
