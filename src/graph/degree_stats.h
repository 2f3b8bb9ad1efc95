// Degree-distribution analysis: histograms and a power-law tail fit
// (continuous-approximation MLE of Clauset–Shalizi–Newman with a KS
// goodness-of-fit distance).
//
// Motivation from the paper: PRSim's complexity analysis assumes the
// input is a strict power-law graph, and the paper counters with Broido
// & Clauset's "Scale-free networks are rare" [3]. This module makes the
// assumption checkable — the CLI's `stats` command prints a graph's
// fitted exponent and KS distance, and tests verify that the Chung–Lu
// stand-ins actually have the tail they claim.

#ifndef SIMPUSH_GRAPH_DEGREE_STATS_H_
#define SIMPUSH_GRAPH_DEGREE_STATS_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "graph/graph.h"

namespace simpush {

/// Which adjacency direction to analyze.
enum class DegreeKind { kIn, kOut };

/// degree -> count histogram, with zero-count degrees omitted.
struct DegreeHistogram {
  std::vector<uint32_t> degrees;  ///< Sorted ascending.
  std::vector<uint64_t> counts;   ///< counts[i] nodes have degrees[i].
  uint64_t num_nodes = 0;         ///< Total nodes (including degree 0).
};

/// Builds the in- or out-degree histogram of `graph`.
DegreeHistogram ComputeDegreeHistogram(const Graph& graph, DegreeKind kind);

/// Result of a power-law tail fit P(d) ~ d^-alpha for d >= d_min.
struct PowerLawFit {
  double alpha = 0;        ///< Fitted exponent (typically 2-3 for web graphs).
  uint32_t d_min = 1;      ///< Tail cutoff used for the fit.
  double ks_distance = 1;  ///< Kolmogorov–Smirnov distance on the tail.
  uint64_t tail_nodes = 0; ///< Nodes with degree >= d_min.
};

/// Fits a power-law tail by the continuous-approximation MLE
///   alpha = 1 + n_tail / sum(ln(d_i / (d_min - 0.5))),
/// scanning d_min over the distinct degrees and keeping the fit with the
/// smallest KS distance (the CSN recipe). Requires at least
/// `min_tail_nodes` in the tail for a cutoff to be eligible.
/// InvalidArgument when no eligible cutoff exists.
StatusOr<PowerLawFit> FitPowerLaw(const DegreeHistogram& histogram,
                                  uint64_t min_tail_nodes = 50);

/// Gini coefficient of the degree sequence — a scale-free measure of
/// degree skew (0 = regular graph, -> 1 = single dominant hub). The
/// CLI's `stats` command prints it alongside the power-law fit.
double DegreeGini(const DegreeHistogram& histogram);

}  // namespace simpush

#endif  // SIMPUSH_GRAPH_DEGREE_STATS_H_
