// SLING baseline [31] (index-based).
//
// Index (two parts, both rebuilt from scratch on any graph change —
// the cost SimPush's index-free design removes):
//   1. η(w) for every node w, estimated by paired-walk sampling;
//   2. for every node w, the reverse hitting-probability lists
//      {(ℓ, v, h^(ℓ)(v, w)) : h^(ℓ)(v, w) >= θ} computed by a
//      deterministic backward push from w along out-edges.
// Query (Eq. 3): forward push from u collects {(ℓ, w, h^(ℓ)(u,w)) >= θ};
// each hit is joined with w's index list:
//   s̃(u,v) += h^(ℓ)(u,w) · η(w) · h^(ℓ)(v,w).
//
// The per-node lists make the index an order of magnitude larger than
// the graph (as [33] reports and Fig. 6 shows) — reproduced here.

#ifndef SIMPUSH_BASELINES_SLING_H_
#define SIMPUSH_BASELINES_SLING_H_

#include <cstdint>
#include <vector>

#include "baselines/single_source.h"

namespace simpush {

/// SLING tuning knobs (paper sweep: ε_a in {0.5, 0.1, 0.05, 0.01, 0.005}).
struct SlingOptions {
  double decay = 0.6;
  double epsilon = 0.05;  ///< Absolute error budget ε_a.
  double delta = 1e-4;
  uint64_t seed = 11;
  uint32_t eta_samples = 500;   ///< Paired walks per node for η(w).
};

/// Index-based SLING implementation.
class Sling : public SingleSourceAlgorithm {
 public:
  Sling(const Graph& graph, const SlingOptions& options)
      : graph_(graph), options_(options) {}

  std::string name() const override { return "SLING"; }
  Status Prepare() override;
  StatusOr<std::vector<double>> Query(NodeId u) override;
  size_t IndexBytes() const override;
  double PrepareSeconds() const override { return prepare_seconds_; }
  bool index_free() const override { return false; }

  /// Push threshold θ derived from ε (θ = (1-√c)·ε/√c scaled for the
  /// three-way error split SLING uses; we take θ = ε/4 like the
  /// reference implementation's default split).
  double PushThreshold() const;

 private:
  struct IndexEntry {
    uint32_t level;
    NodeId v;
    float h;  // h^(level)(v, w)
  };

  const Graph& graph_;
  SlingOptions options_;
  std::vector<double> eta_;
  // reverse_index_[w]: entries sorted by level.
  std::vector<std::vector<IndexEntry>> reverse_index_;
  double prepare_seconds_ = 0.0;
  bool prepared_ = false;
};

}  // namespace simpush

#endif  // SIMPUSH_BASELINES_SLING_H_
