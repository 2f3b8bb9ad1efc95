#include "exact/power_method.h"

#include <algorithm>
#include <cmath>
#include <string>

namespace simpush {

std::vector<double> SimRankMatrix::Row(NodeId u) const {
  return std::vector<double>(data_.begin() + size_t(u) * n_,
                             data_.begin() + size_t(u + 1) * n_);
}

StatusOr<SimRankMatrix> ComputeExactSimRank(
    const Graph& graph, const PowerMethodOptions& options) {
  const NodeId n = graph.num_nodes();
  if (n == 0) return Status::InvalidArgument("empty graph");
  if (n > options.max_nodes) {
    return Status::InvalidArgument(
        "graph too large for dense power method: n=" + std::to_string(n));
  }
  if (options.decay <= 0.0 || options.decay >= 1.0) {
    return Status::InvalidArgument("decay must be in (0,1)");
  }

  SimRankMatrix current(n, 0.0);
  for (NodeId v = 0; v < n; ++v) current(v, v) = 1.0;
  SimRankMatrix next(n, 0.0);

  const double c = options.decay;
  for (uint32_t iteration = 0; iteration < options.max_iterations;
       ++iteration) {
    // next(u,v) = c / (|I(u)||I(v)|) * sum_{u' in I(u), v' in I(v)}
    //             current(u',v'),   then ∨ I.
    // Computed as two sparse one-sided multiplications:
    //   T = Pᵀ * current   (average over in-neighbors of the row index)
    //   next = c * T * P   (average over in-neighbors of the column index)
    // with T materialized row by row to keep memory at 2·n² doubles.
    double max_change = 0.0;
    std::vector<double> t_row(n, 0.0);
    for (NodeId u = 0; u < n; ++u) {
      const auto in_u = graph.InNeighbors(u);
      std::fill(t_row.begin(), t_row.end(), 0.0);
      if (!in_u.empty()) {
        const double inv_du = 1.0 / static_cast<double>(in_u.size());
        for (NodeId up : in_u) {
          for (NodeId x = 0; x < n; ++x) {
            t_row[x] += current(up, x) * inv_du;
          }
        }
      }
      for (NodeId v = 0; v < n; ++v) {
        double value = 0.0;
        if (u == v) {
          value = 1.0;
        } else {
          const auto in_v = graph.InNeighbors(v);
          if (!in_v.empty()) {
            double acc = 0.0;
            for (NodeId vp : in_v) acc += t_row[vp];
            value = c * acc / static_cast<double>(in_v.size());
          }
        }
        max_change = std::max(max_change, std::fabs(value - current(u, v)));
        next(u, v) = value;
      }
    }
    std::swap(current, next);
    if (max_change < options.tolerance) break;
  }
  return current;
}

StatusOr<std::vector<double>> ComputeExactSingleSource(
    const Graph& graph, NodeId u, const PowerMethodOptions& options) {
  if (u >= graph.num_nodes()) {
    return Status::InvalidArgument("query node out of range");
  }
  SIMPUSH_ASSIGN_OR_RETURN(SimRankMatrix matrix,
                           ComputeExactSimRank(graph, options));
  return matrix.Row(u);
}

}  // namespace simpush
