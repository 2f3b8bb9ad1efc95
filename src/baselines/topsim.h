// TopSim baseline [15] (index-free, truncated expansion).
//
// TopSim enumerates the reverse-walk neighbourhood of the query node up
// to depth T and estimates similarity by pairing each reverse path with
// forward expansions back to candidate nodes. Characteristic features
// reproduced here (they drive its accuracy/time profile in Figs. 4-5):
//   * hard truncation at depth T (the quality-guarantee flaw §2.2 notes);
//   * per-level expansion budget H (only the H highest-probability
//     frontier nodes are expanded);
//   * high-degree pruning: nodes with in-degree > 1/h are not expanded
//     during the reverse phase;
//   * walk-probability trimming threshold η;
//   * no last-meeting correction (first-meeting overlap is ignored,
//     overestimating s).
//
// Estimate: s̃(u,v) = Σ_{ℓ<=T} Σ_w ĥ^(ℓ)(u,w)·ĥ^(ℓ)(v,w) over the
// retained meeting nodes w, where ĥ are the truncated/pruned hitting
// probabilities.

#ifndef SIMPUSH_BASELINES_TOPSIM_H_
#define SIMPUSH_BASELINES_TOPSIM_H_

#include <cstdint>
#include <vector>

#include "baselines/single_source.h"

namespace simpush {

/// TopSim tuning knobs (paper sweep: (T, 1/h) with H = 100, η = 0.001).
struct TopSimOptions {
  double decay = 0.6;
  uint32_t depth = 3;                ///< T.
  uint32_t degree_threshold = 1000;  ///< 1/h: skip reverse expansion above.
  double trim_threshold = 0.001;     ///< η: drop probabilities below.
};

/// Index-free TopSim implementation.
class TopSim : public SingleSourceAlgorithm {
 public:
  TopSim(const Graph& graph, const TopSimOptions& options)
      : graph_(graph), options_(options) {}

  std::string name() const override { return "TopSim"; }
  StatusOr<std::vector<double>> Query(NodeId u) override;
  bool index_free() const override { return true; }

 private:
  const Graph& graph_;
  TopSimOptions options_;
};

}  // namespace simpush

#endif  // SIMPUSH_BASELINES_TOPSIM_H_
