// PRSim baseline [33] (index-based state of the art before SimPush).
//
// PRSim links SimRank to ℓ-hop reverse personalized PageRank:
//   π^(ℓ)(u,w) = h^(ℓ)(u,w)·(1-√c),  and (Eq. 4)
//   s(u,v) = 1/(1-√c)² · Σ_ℓ Σ_w π^(ℓ)(u,w)·η(w)·π^(ℓ)(v,w).
// Index: a set of j0 hub nodes (top in-degree, the power-law assumption:
// hubs absorb most meeting probability) with precomputed reverse lists
// {(ℓ, v, π^(ℓ)(v,w))}, plus η(w) for all nodes. Query: forward push
// from u; meetings at hub w are joined against the index; meetings at
// non-hub w fall back to an *online* backward push (the expensive path
// whose frequency the power-law assumption bounds).
//
// Deviation from [33]: π^(ℓ)(u,·) is computed by deterministic forward
// push instead of √c-walk sampling; variance is strictly lower and the
// cost profile (hub hit vs online fallback) is preserved.

#ifndef SIMPUSH_BASELINES_PRSIM_H_
#define SIMPUSH_BASELINES_PRSIM_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "baselines/single_source.h"

namespace simpush {

/// PRSim tuning knobs (paper sweep: ε_a in {0.5, 0.1, 0.05, 0.01,
/// 0.005}). The index always keeps j0 = ⌈√n⌉ hubs, the paper default.
struct PRSimOptions {
  double decay = 0.6;
  double epsilon = 0.05;  ///< Absolute error budget ε_a.
  double delta = 1e-4;
  uint64_t seed = 13;
  uint32_t eta_samples = 500;   ///< Paired walks per node for η(w).
};

/// Index-based PRSim implementation.
class PRSim : public SingleSourceAlgorithm {
 public:
  PRSim(const Graph& graph, const PRSimOptions& options)
      : graph_(graph), options_(options) {}

  std::string name() const override { return "PRSim"; }
  Status Prepare() override;
  StatusOr<std::vector<double>> Query(NodeId u) override;
  size_t IndexBytes() const override;
  double PrepareSeconds() const override { return prepare_seconds_; }
  bool index_free() const override { return false; }

  /// Number of hub nodes actually selected.
  size_t NumHubs() const { return hub_of_node_.size(); }

 private:
  struct IndexEntry {
    uint32_t level;
    NodeId v;
    float h;  // h^(level)(v, w); π = (1-√c)·h applied at query time.
  };

  // Backward push from w producing {(ℓ, v, h^(ℓ)(v,w)) >= θ}.
  std::vector<IndexEntry> BackwardPush(NodeId w, double theta,
                                       uint32_t max_level) const;

  const Graph& graph_;
  PRSimOptions options_;
  std::vector<double> eta_;
  std::unordered_map<NodeId, uint32_t> hub_of_node_;  // node -> hub slot.
  std::vector<std::vector<IndexEntry>> hub_index_;    // per hub slot.
  double prepare_seconds_ = 0.0;
  bool prepared_ = false;
};

}  // namespace simpush

#endif  // SIMPUSH_BASELINES_PRSIM_H_
