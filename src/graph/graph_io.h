// Edge-list text I/O (the format used by SNAP / LAW dataset dumps).

#ifndef SIMPUSH_GRAPH_GRAPH_IO_H_
#define SIMPUSH_GRAPH_GRAPH_IO_H_

#include <string>

#include "common/status.h"
#include "graph/graph.h"

namespace simpush {

/// Options controlling edge-list parsing.
struct EdgeListOptions {
  /// Treat each line "a b" as an undirected edge (adds both directions),
  /// matching the paper's handling of undirected datasets (§2.1).
  bool undirected = false;
};

/// Loads a graph from a whitespace-separated edge-list file.
///
/// Grammar, one line at a time (lines end at '\n'; whitespace is space,
/// tab, '\r', '\v' or '\f'):
///   - a line that is empty or all whitespace is skipped;
///   - a line whose first non-whitespace byte is '#' or '%' is a
///     comment and is skipped;
///   - any other line is `id ws+ id`, optionally followed by whitespace
///     and anything at all (extra columns such as SNAP weights are
///     ignored). An id is an unsigned decimal integer in [0, 2^64)
///     ending at whitespace or the end of the line, so "-1", "+1",
///     "2.5", "0x1f" and "2," are rejected.
/// A line breaking the grammar is an IOError naming its line number and
/// echoing at most 80 bytes of it. Ids are compacted to [0, n) in
/// first-appearance order. Parallel edges collapse to one; self-loops
/// are kept.
///
/// The file is read in 1 MiB blocks, so memory beyond the graph itself
/// stays bounded by the block and the longest line. A read error (for
/// instance `path` naming a directory) is an IOError, never a truncated
/// graph.
StatusOr<Graph> LoadEdgeList(const std::string& path,
                             const EdgeListOptions& options = {});

/// Loads a graph dispatching on the file name: ".spg" files go through
/// LoadBinaryGraph, anything else through LoadEdgeList with `options`.
/// The single format-detection point shared by the CLI tools and the
/// serving layer's graph-create endpoint.
StatusOr<Graph> LoadGraphAnyFormat(const std::string& path,
                                   const EdgeListOptions& options = {});

/// Writes the graph in the format LoadGraphAnyFormat reads back from
/// `path`: SaveBinaryGraph for ".spg", SaveEdgeList otherwise.
Status SaveGraphAnyFormat(const Graph& graph, const std::string& path);

/// Writes the graph as a directed edge list ("src dst" per line).
Status SaveEdgeList(const Graph& graph, const std::string& path);

}  // namespace simpush

#endif  // SIMPUSH_GRAPH_GRAPH_IO_H_
