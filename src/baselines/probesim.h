// ProbeSim baseline [21] (index-free state of the art before SimPush).
//
// Estimator (Eq. 5): s(u,v) = Σ_ℓ Σ_w f^(ℓ)(u,v,w), the probability that
// √c-walks from u and v first meet at w at step ℓ. ProbeSim samples
// √c-walks W(u) = (u, w_1, ..., w_t); for each step ℓ it "probes" w_ℓ —
// a deterministic reverse expansion along out-edges computing, for every
// node v, the probability that a √c-walk from v is at w_ℓ at step ℓ
// *without* having met the sampled walk at any earlier step (the
// exclusion that makes the meeting a first meeting). The average over
// sampled walks is an unbiased estimate of s(u, v).
//
// Deviation from [21]: the original interleaves sampling with a
// per-probe randomized trimming; we implement the deterministic probe,
// which preserves unbiasedness and the O(n·log(n/δ)/ε²) behaviour that
// Table 1 reports.

#ifndef SIMPUSH_BASELINES_PROBESIM_H_
#define SIMPUSH_BASELINES_PROBESIM_H_

#include <cstdint>
#include <vector>

#include "baselines/single_source.h"
#include "common/rng.h"

namespace simpush {

/// ProbeSim tuning knobs.
struct ProbeSimOptions {
  double decay = 0.6;
  /// Absolute error threshold ε_a (the paper sweeps
  /// {0.5, 0.1, 0.05, 0.01, 0.005}).
  double epsilon = 0.05;
  double delta = 1e-4;
  uint64_t seed = 7;
  /// Optional cap on sampled walks (0 = use the Hoeffding formula
  /// ⌈ln(2n/δ)/(2ε²)⌉; the formula is what the guarantee needs but is
  /// expensive for tiny ε, mirroring the paper's reported slow queries).
  uint64_t max_walks = 0;
};

/// Index-free ProbeSim implementation.
class ProbeSim : public SingleSourceAlgorithm {
 public:
  ProbeSim(const Graph& graph, const ProbeSimOptions& options);

  std::string name() const override { return "ProbeSim"; }
  StatusOr<std::vector<double>> Query(NodeId u) override;
  bool index_free() const override { return true; }

  /// Number of walks the current options imply.
  uint64_t NumWalks() const;

 private:
  const Graph& graph_;
  ProbeSimOptions options_;
  double sqrt_c_;
  Rng rng_;
};

}  // namespace simpush

#endif  // SIMPUSH_BASELINES_PROBESIM_H_
