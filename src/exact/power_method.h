// Exact all-pairs SimRank via the power method of Jeh & Widom:
//   S_{k+1} = (c · Pᵀ S_k P) ∨ I,   S_0 = I,
// where P is the column-normalized reverse transition matrix. Converges
// geometrically with rate c; used as exact ground truth in tests and for
// the small/medium benchmark stand-ins (eval/datasets.h).

#ifndef SIMPUSH_EXACT_POWER_METHOD_H_
#define SIMPUSH_EXACT_POWER_METHOD_H_

#include <vector>

#include "common/status.h"
#include "graph/graph.h"

namespace simpush {

/// Dense n×n SimRank matrix. Row-major, S(u,v) symmetric with unit
/// diagonal.
class SimRankMatrix {
 public:
  SimRankMatrix() = default;
  SimRankMatrix(NodeId n, double init) : n_(n), data_(size_t(n) * n, init) {}

  double operator()(NodeId u, NodeId v) const {
    return data_[size_t(u) * n_ + v];
  }
  double& operator()(NodeId u, NodeId v) { return data_[size_t(u) * n_ + v]; }

  NodeId size() const { return n_; }

  /// Copies row u (single-source result) into a dense vector.
  std::vector<double> Row(NodeId u) const;

 private:
  NodeId n_ = 0;
  std::vector<double> data_;
};

/// Options for the power-method iteration.
struct PowerMethodOptions {
  double decay = 0.6;        ///< SimRank decay factor c.
  double tolerance = 1e-9;   ///< Stop when max entry change < tolerance.
  uint32_t max_iterations = 100;
  NodeId max_nodes = 20000;  ///< Guard against accidental O(n²) blowups.
};

/// Runs the power method to convergence. O(n·m) time per iteration,
/// O(n²) memory; rejects graphs above options.max_nodes.
StatusOr<SimRankMatrix> ComputeExactSimRank(const Graph& graph,
                                            const PowerMethodOptions& options);

/// Convenience: exact single-source vector s(u, ·).
StatusOr<std::vector<double>> ComputeExactSingleSource(
    const Graph& graph, NodeId u, const PowerMethodOptions& options);

}  // namespace simpush

#endif  // SIMPUSH_EXACT_POWER_METHOD_H_
