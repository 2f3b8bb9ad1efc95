// TSF baseline [28] (index-based).
//
// Index: R_g "one-way graphs", each sampling exactly one in-neighbor
// (parent) per node. Within a one-way graph the reverse walk from any
// node is deterministic, so two walks meet iff their parent chains
// collide. Query: for each one-way graph, sample R_q query walks from u
// over the *original* graph; at each step ℓ, every node v whose
// deterministic chain reaches the walk's position at depth ℓ (found by
// descending the child-tree ℓ levels) is credited c^ℓ.
//
// This reimplementation intentionally keeps the two flaws §2.2 quotes
// from [33] — multiple meetings are all counted (overestimation) and
// walks are truncated at `max_depth` — because they are part of TSF's
// reported accuracy profile in Figs. 4-5.

#ifndef SIMPUSH_BASELINES_TSF_H_
#define SIMPUSH_BASELINES_TSF_H_

#include <cstdint>
#include <vector>

#include "baselines/single_source.h"

namespace simpush {

/// TSF tuning knobs (paper sweep: (R_g, R_q) from (10,2) to (600,80)).
struct TsfOptions {
  double decay = 0.6;
  uint32_t num_one_way_graphs = 100;  ///< R_g.
  uint32_t reuse_per_graph = 20;      ///< R_q.
  uint32_t max_depth = 10;            ///< Walk truncation depth T.
  uint64_t seed = 19;
};

/// Index-based TSF implementation.
class Tsf : public SingleSourceAlgorithm {
 public:
  Tsf(const Graph& graph, const TsfOptions& options)
      : graph_(graph), options_(options) {}

  std::string name() const override { return "TSF"; }
  Status Prepare() override;
  StatusOr<std::vector<double>> Query(NodeId u) override;
  size_t IndexBytes() const override;
  double PrepareSeconds() const override { return prepare_seconds_; }
  bool index_free() const override { return false; }

 private:
  const Graph& graph_;
  TsfOptions options_;
  // One-way graphs stored as child CSR: children_offsets_[g][p] ..
  // children_offsets_[g][p+1] index children_nodes_[g] (nodes whose
  // sampled parent is p).
  std::vector<std::vector<uint32_t>> children_offsets_;
  std::vector<std::vector<NodeId>> children_nodes_;
  double prepare_seconds_ = 0.0;
  bool prepared_ = false;
};

}  // namespace simpush

#endif  // SIMPUSH_BASELINES_TSF_H_
