// Mutable adjacency-list graph supporting online edge insertion and
// deletion, with O(m) snapshotting into the immutable CSR Graph that the
// query algorithms consume.
//
// This is the substrate for the paper's motivating scenario (§1): the
// underlying graph "can change frequently and unpredictably", so query
// processing must not depend on precomputation that is invalidated by
// updates. Index-free methods (SimPush, ProbeSim, TopSim) query a fresh
// snapshot directly; index-based methods (SLING, PRSim, READS, TSF) must
// re-run Prepare() after updates. bench_dynamic_updates measures exactly
// this asymmetry.

#ifndef SIMPUSH_GRAPH_DYNAMIC_GRAPH_H_
#define SIMPUSH_GRAPH_DYNAMIC_GRAPH_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "graph/graph.h"

namespace simpush {

/// A single edge update in a workload stream.
struct EdgeUpdate {
  enum class Kind : uint8_t { kInsert, kDelete };
  Kind kind = Kind::kInsert;
  NodeId src = 0;
  NodeId dst = 0;
};

/// The edge updates accepted against an immutable base graph and not yet
/// folded into it: a net copy count per (src, dst) pair plus the
/// vertices the accepted updates touched. The serving registry keeps one
/// per tenant in place of a mutable copy of the graph, and builds each
/// hot swap by merging the edits into the live generation's CSR pair.
class PendingEdits {
 public:
  /// Applies a batch ATOMICALLY against `base` plus the edits already
  /// pending, with DynamicGraph::Apply's contract and error texts: both
  /// endpoints are range-checked before any row of `base` is read, an
  /// insert earlier in the batch can satisfy a later delete, and a
  /// rejected batch changes nothing.
  Status Apply(const Graph& base, const std::vector<EdgeUpdate>& updates);

  /// The canonical snapshot of `base` with the pending edits applied:
  /// byte-identical to DynamicGraph::Snapshot() of the same edge
  /// multiset. Runs of rows with no net edit are copied straight out of
  /// `base`'s arrays; each row with one is merged from its base row.
  /// `base` must hold the edges the edits were validated against;
  /// FailedPrecondition when it lacks an edge a pending delete removes.
  StatusOr<Graph> Merge(const Graph& base) const;

  /// Drops every pending edit.
  void Clear();

  /// Edges the pending edits add, net (negative when they remove more).
  int64_t net_edges() const { return net_edges_; }
  /// Distinct vertices an accepted update touched, counted exactly as
  /// DynamicGraph::dirty_vertices() counts them.
  size_t dirty_vertices() const { return touched_.size(); }

 private:
  std::unordered_map<uint64_t, int64_t> net_;  // (src << 32 | dst) -> copies.
  std::unordered_set<NodeId> touched_;
  int64_t net_edges_ = 0;
};

/// Mutable directed graph with per-node out/in adjacency vectors.
///
/// Complexity: AddEdge amortized O(1); RemoveEdge O(d_O(src) + d_I(dst))
/// (swap-with-back removal, order not preserved); Snapshot O(n + m);
/// SnapshotDelta patches only the rows dirtied since the last
/// MarkClean() into a copy of a previous snapshot's arrays.
/// Duplicate (parallel) edges are permitted, matching multigraph edge
/// lists; HasEdge reports any occurrence.
class DynamicGraph {
 public:
  DynamicGraph() = default;

  /// Creates an empty graph with `num_nodes` nodes. The new graph is
  /// marked clean: its implicit base snapshot is the empty n-node graph.
  explicit DynamicGraph(NodeId num_nodes)
      : out_(num_nodes),
        in_(num_nodes),
        dirty_out_(num_nodes, 0),
        dirty_in_(num_nodes, 0),
        clean_nodes_(num_nodes) {}

  /// Copies an immutable snapshot into mutable form.
  static DynamicGraph FromGraph(const Graph& graph);

  NodeId num_nodes() const { return static_cast<NodeId>(out_.size()); }
  EdgeId num_edges() const { return num_edges_; }

  uint32_t OutDegree(NodeId v) const {
    return static_cast<uint32_t>(out_[v].size());
  }
  uint32_t InDegree(NodeId v) const {
    return static_cast<uint32_t>(in_[v].size());
  }

  /// Out-neighbors O(v), as a span so templated walk/push code compiles
  /// against Graph and DynamicGraph interchangeably (same return type as
  /// Graph::OutNeighbors; no copies). Invalidated by any mutation of v's
  /// adjacency.
  std::span<const NodeId> OutNeighbors(NodeId v) const { return out_[v]; }
  /// In-neighbors I(v); same contract as OutNeighbors.
  std::span<const NodeId> InNeighbors(NodeId v) const { return in_[v]; }

  /// k-th in-neighbor of v, 0 <= k < InDegree(v) — mirrors
  /// Graph::InNeighborAt for walk code written against either type.
  NodeId InNeighborAt(NodeId v, uint32_t k) const { return in_[v][k]; }

  /// Appends a node with no edges; returns its id.
  NodeId AddNode();

  /// Inserts the directed edge src -> dst. InvalidArgument when an
  /// endpoint is out of range.
  Status AddEdge(NodeId src, NodeId dst);

  /// Removes one occurrence of src -> dst. NotFound when absent.
  Status RemoveEdge(NodeId src, NodeId dst);

  /// True when at least one src -> dst edge exists. O(d_O(src)).
  bool HasEdge(NodeId src, NodeId dst) const;

  /// Applies a batch of updates ATOMICALLY: the whole batch is
  /// validated against the live adjacency first — including intra-batch
  /// effects, so an insert earlier in the batch can satisfy a later
  /// delete of the same edge — and only then applied. On failure the
  /// graph is left byte-identical to before the call (no update is
  /// applied, no dirty state is recorded) and the status names the
  /// offending update's index. This is what lets the serving layer
  /// reject a bad network batch with a 4xx without the next hot swap
  /// silently publishing half of it.
  Status Apply(const std::vector<EdgeUpdate>& updates);

  /// Materializes an immutable CSR snapshot for querying. Adjacency is
  /// emitted canonically sorted (ascending per node, both directions):
  /// two DynamicGraphs holding the same edge multiset produce
  /// byte-identical snapshots regardless of the insert/delete history
  /// that built them — RemoveEdge's swap-with-back reordering never
  /// leaks into a snapshot. It is the reference the registry's merged
  /// publishes (PendingEdits::Merge) must equal byte for byte.
  StatusOr<Graph> Snapshot() const;

  /// Incremental canonical snapshot: produces a Graph byte-identical to
  /// Snapshot(), but built by patching only the dirty rows into a copy
  /// of `base`'s CSR arrays — clean per-node runs are bulk-copied
  /// (memcpy-speed, no per-row sort/validate/scatter), dirty rows are
  /// re-sorted locally. `base` must be the canonical snapshot of this
  /// graph's state at the last MarkClean() point (checked cheaply via
  /// the node/edge counts recorded then; FailedPrecondition on
  /// mismatch, letting callers fall back to a full Snapshot()).
  /// Cost: O(n) offset arithmetic + bandwidth-bound copy of clean runs
  /// + O(d log d) per dirty row, vs Snapshot()'s per-row copy+sort plus
  /// FromSortedCsr's O(m) validation and counting-sort scatter.
  StatusOr<Graph> SnapshotDelta(const Graph& base) const;

  /// Declares the current state clean: a snapshot taken now becomes the
  /// valid `base` for future SnapshotDelta calls, and the dirty set
  /// resets. A caller that publishes snapshots calls this only after a
  /// publish succeeds, so a failed one keeps the dirty set intact and
  /// the next delta still patches against the snapshot left live.
  void MarkClean();

  /// Distinct vertices whose out- or in-adjacency changed since the
  /// last MarkClean() (or construction). O(1). PendingEdits counts the
  /// same set for the registry's /v1/stats.
  size_t dirty_vertices() const { return dirty_count_; }

  /// Approximate heap footprint in bytes.
  size_t MemoryBytes() const;

 private:
  void MarkOutDirty(NodeId v);
  void MarkInDirty(NodeId v);

  std::vector<std::vector<NodeId>> out_;
  std::vector<std::vector<NodeId>> in_;
  EdgeId num_edges_ = 0;

  // Dirty tracking for SnapshotDelta: one flag per adjacency direction
  // (an edge dirties only its src's out-row and its dst's in-row), plus
  // the node/edge counts recorded at the last MarkClean() so a
  // mismatched base is rejected instead of silently miscopied.
  std::vector<uint8_t> dirty_out_;
  std::vector<uint8_t> dirty_in_;
  size_t dirty_count_ = 0;
  NodeId clean_nodes_ = 0;
  EdgeId clean_edges_ = 0;
};

/// Deterministically generates a mixed insert/delete stream against
/// `graph`: `num_updates` updates, a `delete_fraction` of which remove a
/// currently-present edge (sampled uniformly) while the rest insert a
/// fresh random non-self-loop edge. Mirrors the sliding-window update
/// workloads used by the dynamic-SimRank literature (READS, TSF).
/// With a single node no non-self-loop insert exists, so the stream
/// only deletes already-present edges and may end short of
/// `num_updates` once none remain.
std::vector<EdgeUpdate> GenerateUpdateStream(const Graph& graph,
                                             size_t num_updates,
                                             double delete_fraction,
                                             uint64_t seed);

}  // namespace simpush

#endif  // SIMPUSH_GRAPH_DYNAMIC_GRAPH_H_
