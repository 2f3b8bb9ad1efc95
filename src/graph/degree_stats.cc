#include "graph/degree_stats.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace simpush {

DegreeHistogram ComputeDegreeHistogram(const Graph& graph, DegreeKind kind) {
  // Flat sort + run-length encode: O(n) memory regardless of the max
  // degree (a dense per-degree tally would be O(max degree) — hundreds
  // of MB for a single web-scale hub) and no tree-map rebalancing per
  // node on graph load.
  std::vector<uint32_t> degrees(graph.num_nodes());
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    degrees[v] =
        kind == DegreeKind::kIn ? graph.InDegree(v) : graph.OutDegree(v);
  }
  std::sort(degrees.begin(), degrees.end());
  DegreeHistogram histogram;
  histogram.num_nodes = graph.num_nodes();
  for (size_t i = 0; i < degrees.size();) {
    size_t j = i + 1;
    while (j < degrees.size() && degrees[j] == degrees[i]) ++j;
    histogram.degrees.push_back(degrees[i]);
    histogram.counts.push_back(j - i);
    i = j;
  }
  return histogram;
}

namespace {

// KS distance between the empirical tail CCDF and the fitted power-law
// CCDF (d / d_min)^{-(alpha-1)}, evaluated at the distinct tail degrees.
double TailKsDistance(const DegreeHistogram& histogram, size_t first_tail,
                      double alpha, uint64_t tail_nodes) {
  const double d_min = histogram.degrees[first_tail];
  double ks = 0.0;
  uint64_t seen = 0;  // tail nodes with degree < degrees[i]
  for (size_t i = first_tail; i < histogram.degrees.size(); ++i) {
    const double empirical_ccdf =
        static_cast<double>(tail_nodes - seen) / tail_nodes;
    const double model_ccdf =
        std::pow(histogram.degrees[i] / d_min, -(alpha - 1.0));
    ks = std::max(ks, std::fabs(empirical_ccdf - model_ccdf));
    seen += histogram.counts[i];
  }
  return ks;
}

}  // namespace

StatusOr<PowerLawFit> FitPowerLaw(const DegreeHistogram& histogram,
                                  uint64_t min_tail_nodes) {
  if (histogram.degrees.empty()) {
    return Status::InvalidArgument("empty degree histogram");
  }
  PowerLawFit best;
  bool found = false;
  // Suffix statistics for each candidate cutoff index.
  for (size_t cut = 0; cut < histogram.degrees.size(); ++cut) {
    const uint32_t d_min = histogram.degrees[cut];
    if (d_min == 0) continue;  // log undefined; degree-0 never in tail
    uint64_t tail_nodes = 0;
    double log_sum = 0.0;
    for (size_t i = cut; i < histogram.degrees.size(); ++i) {
      tail_nodes += histogram.counts[i];
      log_sum += histogram.counts[i] *
                 std::log(histogram.degrees[i] / (d_min - 0.5));
    }
    if (tail_nodes < min_tail_nodes) break;  // tails only shrink
    if (log_sum <= 0.0) continue;            // degenerate single-degree tail
    const double alpha = 1.0 + static_cast<double>(tail_nodes) / log_sum;
    const double ks = TailKsDistance(histogram, cut, alpha, tail_nodes);
    if (!found || ks < best.ks_distance) {
      best.alpha = alpha;
      best.d_min = d_min;
      best.ks_distance = ks;
      best.tail_nodes = tail_nodes;
      found = true;
    }
  }
  if (!found) {
    return Status::InvalidArgument("no cutoff with enough tail nodes");
  }
  return best;
}

double DegreeGini(const DegreeHistogram& histogram) {
  // Gini over the degree sequence: with degrees sorted ascending,
  // G = (2 * sum(i * d_i) / (n * sum(d_i))) - (n + 1) / n, with i 1-based.
  double total_degree = 0.0;
  double weighted = 0.0;
  uint64_t rank = 0;  // cumulative node count before this degree bucket
  for (size_t i = 0; i < histogram.degrees.size(); ++i) {
    const double d = histogram.degrees[i];
    const double cnt = static_cast<double>(histogram.counts[i]);
    // Sum of ranks (1-based) within the bucket: cnt terms starting at
    // rank+1, i.e. cnt*rank + cnt*(cnt+1)/2.
    weighted += d * (cnt * rank + cnt * (cnt + 1) / 2.0);
    total_degree += d * cnt;
    rank += histogram.counts[i];
  }
  const double n = static_cast<double>(histogram.num_nodes);
  if (n == 0 || total_degree == 0) return 0.0;
  return 2.0 * weighted / (n * total_degree) - (n + 1.0) / n;
}

}  // namespace simpush
