#include "graph/graph.h"

#include <algorithm>

namespace simpush {

size_t Graph::MemoryBytes() const {
  return out_offsets_.capacity() * sizeof(EdgeId) +
         in_offsets_.capacity() * sizeof(EdgeId) +
         out_targets_.capacity() * sizeof(NodeId) +
         in_sources_.capacity() * sizeof(NodeId);
}

Status Graph::Validate() const {
  if (out_offsets_.size() != static_cast<size_t>(num_nodes_) + 1 ||
      in_offsets_.size() != static_cast<size_t>(num_nodes_) + 1) {
    return Status::Internal("offset array size mismatch");
  }
  if (out_offsets_.front() != 0 || in_offsets_.front() != 0) {
    return Status::Internal("offsets must start at 0");
  }
  if (out_offsets_.back() != out_targets_.size() ||
      in_offsets_.back() != in_sources_.size()) {
    return Status::Internal("offsets must end at edge count");
  }
  if (out_targets_.size() != in_sources_.size()) {
    return Status::Internal("out/in edge counts differ");
  }
  for (NodeId v = 0; v < num_nodes_; ++v) {
    if (out_offsets_[v] > out_offsets_[v + 1] ||
        in_offsets_[v] > in_offsets_[v + 1]) {
      return Status::Internal("offsets not monotone");
    }
  }
  for (NodeId t : out_targets_) {
    if (t >= num_nodes_) return Status::Internal("edge target out of range");
  }
  for (NodeId s : in_sources_) {
    if (s >= num_nodes_) return Status::Internal("edge source out of range");
  }
  return Status::OK();
}

StatusOr<Graph> Graph::FromSortedCsr(NodeId num_nodes,
                                     std::vector<EdgeId> out_offsets,
                                     std::vector<NodeId> out_targets,
                                     bool symmetric) {
  if (out_offsets.size() != static_cast<size_t>(num_nodes) + 1 ||
      out_offsets.front() != 0 || out_offsets.back() != out_targets.size()) {
    return Status::InvalidArgument("malformed out-CSR offsets");
  }
  for (NodeId v = 0; v < num_nodes; ++v) {
    // Bounding every offset by m keeps a malformed row from reading
    // past out_targets before a later row would fail monotonicity.
    if (out_offsets[v] > out_offsets[v + 1] ||
        out_offsets[v + 1] > out_targets.size()) {
      return Status::InvalidArgument("out-CSR offsets not monotone");
    }
    for (EdgeId e = out_offsets[v]; e < out_offsets[v + 1]; ++e) {
      if (out_targets[e] >= num_nodes) {
        return Status::InvalidArgument("out-CSR target out of range");
      }
      if (e > out_offsets[v] && out_targets[e - 1] > out_targets[e]) {
        return Status::InvalidArgument("out-CSR adjacency not sorted");
      }
    }
  }

  Graph g;
  g.num_nodes_ = num_nodes;
  g.is_symmetric_ = symmetric;
  g.out_offsets_ = std::move(out_offsets);
  g.out_targets_ = std::move(out_targets);

  // In-CSR via counting sort on target. Scanning sources in ascending
  // order keeps every in-adjacency run sorted — the canonical order the
  // registry's reproducible snapshots rely on.
  const size_t m = g.out_targets_.size();
  g.in_offsets_.assign(static_cast<size_t>(num_nodes) + 1, 0);
  g.in_sources_.resize(m);
  for (NodeId t : g.out_targets_) ++g.in_offsets_[t + 1];
  for (NodeId v = 0; v < num_nodes; ++v) {
    g.in_offsets_[v + 1] += g.in_offsets_[v];
  }
  {
    std::vector<EdgeId> cursor(g.in_offsets_.begin(), g.in_offsets_.end() - 1);
    for (NodeId v = 0; v < num_nodes; ++v) {
      for (EdgeId e = g.out_offsets_[v]; e < g.out_offsets_[v + 1]; ++e) {
        g.in_sources_[cursor[g.out_targets_[e]]++] = v;
      }
    }
  }
  // No Validate() call: the loop above already checked every out-side
  // invariant, and the in-CSR is correct by construction (counting
  // sort over in-range targets) — this runs on every hot-swap rebuild,
  // so a second full pass over the edge arrays would be pure waste.
  return g;
}

StatusOr<Graph> Graph::FromSortedCsrPair(NodeId num_nodes,
                                         std::vector<EdgeId> out_offsets,
                                         std::vector<NodeId> out_targets,
                                         std::vector<EdgeId> in_offsets,
                                         std::vector<NodeId> in_sources,
                                         bool symmetric) {
  if (out_offsets.size() != static_cast<size_t>(num_nodes) + 1 ||
      out_offsets.front() != 0 || out_offsets.back() != out_targets.size()) {
    return Status::InvalidArgument("malformed out-CSR offsets");
  }
  if (in_offsets.size() != static_cast<size_t>(num_nodes) + 1 ||
      in_offsets.front() != 0 || in_offsets.back() != in_sources.size()) {
    return Status::InvalidArgument("malformed in-CSR offsets");
  }
  if (out_targets.size() != in_sources.size()) {
    return Status::InvalidArgument("out/in edge counts differ");
  }
  for (NodeId v = 0; v < num_nodes; ++v) {
    if (out_offsets[v] > out_offsets[v + 1] ||
        in_offsets[v] > in_offsets[v + 1]) {
      return Status::InvalidArgument("CSR offsets not monotone");
    }
  }
  // Deliberately no per-edge pass: re-verifying every target/source
  // would reinstate exactly the O(m) cost the delta-publish caller just
  // avoided. See the header comment for the caller's obligations.
  Graph g;
  g.num_nodes_ = num_nodes;
  g.is_symmetric_ = symmetric;
  g.out_offsets_ = std::move(out_offsets);
  g.out_targets_ = std::move(out_targets);
  g.in_offsets_ = std::move(in_offsets);
  g.in_sources_ = std::move(in_sources);
  return g;
}

Graph::DegreeStats Graph::ComputeDegreeStats() const {
  DegreeStats stats;
  if (num_nodes_ == 0) return stats;
  for (NodeId v = 0; v < num_nodes_; ++v) {
    const uint32_t out_deg = OutDegree(v);
    const uint32_t in_deg = InDegree(v);
    stats.max_out_degree = std::max(stats.max_out_degree, out_deg);
    stats.max_in_degree = std::max(stats.max_in_degree, in_deg);
    if (out_deg == 0) ++stats.num_sink_nodes;
    if (in_deg == 0) ++stats.num_source_nodes;
  }
  stats.avg_out_degree =
      static_cast<double>(num_edges()) / static_cast<double>(num_nodes_);
  return stats;
}

}  // namespace simpush
