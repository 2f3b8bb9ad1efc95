#include "graph/dynamic_graph.h"

#include <algorithm>
#include <compare>
#include <cstddef>
#include <string>
#include <unordered_map>

#include "common/rng.h"

namespace simpush {

namespace {

// Removes one occurrence of `value` from `vec` by swapping with the back.
// Returns false when absent.
bool SwapRemove(std::vector<NodeId>& vec, NodeId value) {
  auto it = std::find(vec.begin(), vec.end(), value);
  if (it == vec.end()) return false;
  *it = vec.back();
  vec.pop_back();
  return true;
}

// (src, dst) packed into one word for the edge-count maps.
uint64_t EdgeKey(NodeId src, NodeId dst) {
  return (static_cast<uint64_t>(src) << 32) | dst;
}

// Copies of src -> dst in `graph`, whose out-rows are sorted.
// O(log d_O(src)).
EdgeId CountCsrEdges(const Graph& graph, NodeId src, NodeId dst) {
  const auto row = graph.OutNeighbors(src);
  const auto [lo, hi] = std::equal_range(row.begin(), row.end(), dst);
  return static_cast<EdgeId>(hi - lo);
}

// Batch-wide validation for Apply: simulates the batch against an edge
// multiset without mutating anything. `count(src, dst)` reports the
// copies of an in-range edge before the batch; per (src, dst) key the
// map tracks how many copies would be available at each step. Counts
// are loaded lazily on first touch, so validation costs one count per
// distinct edge, not O(m).
template <typename CountFn>
Status ValidateBatch(NodeId num_nodes, const std::vector<EdgeUpdate>& updates,
                     CountFn count) {
  std::unordered_map<uint64_t, EdgeId> available;
  available.reserve(updates.size());
  for (size_t i = 0; i < updates.size(); ++i) {
    const EdgeUpdate& update = updates[i];
    Status status = Status::OK();
    if (update.src >= num_nodes || update.dst >= num_nodes) {
      status = Status::InvalidArgument("edge endpoint out of range");
    } else {
      auto [it, first_touch] =
          available.try_emplace(EdgeKey(update.src, update.dst), 0);
      if (first_touch) it->second = count(update.src, update.dst);
      if (update.kind == EdgeUpdate::Kind::kInsert) {
        ++it->second;
      } else if (it->second == 0) {
        status = Status::NotFound("edge not present");
      } else {
        --it->second;
      }
    }
    if (!status.ok()) {
      return Status(status.code(), "update " + std::to_string(i) +
                                       " rejected (no updates applied): " +
                                       std::string(status.message()));
    }
  }
  return Status::OK();
}

// Row v of one CSR direction of `graph` (out-rows when `out`), and the
// flat index where it starts (v in [0, n], so RowBegin(n) == m).
std::span<const NodeId> Row(const Graph& graph, bool out, NodeId v) {
  return out ? graph.OutNeighbors(v) : graph.InNeighbors(v);
}
EdgeId RowBegin(const Graph& graph, bool out, NodeId v) {
  return out ? graph.OutRowBegin(v) : graph.InRowBegin(v);
}

// One row's net edit in a PendingEdits merge: `delta` copies of `col`
// added to (or, when negative, removed from) row `row`. Sorts by
// (row, col), which is unique per direction.
struct RowEdit {
  NodeId row;
  NodeId col;
  int64_t delta;

  auto operator<=>(const RowEdit&) const = default;
};

}  // namespace

DynamicGraph DynamicGraph::FromGraph(const Graph& graph) {
  DynamicGraph dynamic(graph.num_nodes());
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    auto out = graph.OutNeighbors(v);
    dynamic.out_[v].assign(out.begin(), out.end());
  }
  dynamic.num_edges_ = graph.num_edges();
  // Clean relative to `graph`: when it is a canonical snapshot (the
  // registry's case), SnapshotDelta can immediately merge against it.
  return dynamic;
}

Status DynamicGraph::AddEdge(NodeId src, NodeId dst) {
  if (src >= num_nodes() || dst >= num_nodes()) {
    return Status::InvalidArgument("edge endpoint out of range");
  }
  out_[src].push_back(dst);
  ++num_edges_;
  edits_.Record({EdgeUpdate::Kind::kInsert, src, dst});
  return Status::OK();
}

Status DynamicGraph::RemoveEdge(NodeId src, NodeId dst) {
  if (src >= num_nodes() || dst >= num_nodes()) {
    return Status::InvalidArgument("edge endpoint out of range");
  }
  if (!SwapRemove(out_[src], dst)) {
    return Status::NotFound("edge not present");
  }
  --num_edges_;
  edits_.Record({EdgeUpdate::Kind::kDelete, src, dst});
  return Status::OK();
}

bool DynamicGraph::HasEdge(NodeId src, NodeId dst) const {
  if (src >= num_nodes()) return false;
  const auto& neighbors = out_[src];
  return std::find(neighbors.begin(), neighbors.end(), dst) !=
         neighbors.end();
}

Status DynamicGraph::Apply(const std::vector<EdgeUpdate>& updates) {
  // Validate-then-mutate: a rejected batch must leave the graph (and
  // its recorded edits) byte-identical to before the call, so a caller
  // can reject a bad batch without a half-applied prefix surviving it.
  SIMPUSH_RETURN_NOT_OK(
      ValidateBatch(num_nodes(), updates, [this](NodeId src, NodeId dst) {
        return static_cast<EdgeId>(
            std::count(out_[src].begin(), out_[src].end(), dst));
      }));
  for (const EdgeUpdate& update : updates) {
    const Status status = update.kind == EdgeUpdate::Kind::kInsert
                              ? AddEdge(update.src, update.dst)
                              : RemoveEdge(update.src, update.dst);
    if (!status.ok()) {
      return Status::Internal("validated update failed to apply: " +
                              std::string(status.message()));
    }
  }
  return Status::OK();
}

StatusOr<Graph> DynamicGraph::Snapshot() const {
  // Canonical snapshot: RemoveEdge's swap-with-back removal makes the
  // live adjacency order a function of the whole update history, so the
  // CSR is built with every per-node run sorted — two graphs holding the
  // same edge multiset snapshot to byte-identical CSRs no matter which
  // insert/delete sequence produced them. That is what makes registry
  // hot swaps reproducible (and walk indices meaningful across swaps).
  // Parallel edges are kept: the dynamic stream may legitimately contain
  // duplicates and deleting one copy must leave the other.
  const NodeId n = num_nodes();
  std::vector<EdgeId> offsets(static_cast<size_t>(n) + 1, 0);
  for (NodeId v = 0; v < n; ++v) {
    offsets[v + 1] = offsets[v] + out_[v].size();
  }
  std::vector<NodeId> targets(static_cast<size_t>(num_edges_));
  for (NodeId v = 0; v < n; ++v) {
    const auto begin = targets.begin() + static_cast<ptrdiff_t>(offsets[v]);
    std::copy(out_[v].begin(), out_[v].end(), begin);
    std::sort(begin, targets.begin() + static_cast<ptrdiff_t>(offsets[v + 1]));
  }
  return Graph::FromSortedCsr(n, std::move(offsets), std::move(targets));
}

StatusOr<Graph> DynamicGraph::SnapshotDelta(const Graph& base) const {
  // Cheap base check: `base` must be the canonical snapshot of this
  // graph at the last MarkClean() point. Its node and edge counts catch
  // a stale base or another graph's snapshot; Merge itself refuses a
  // base that lacks an edge a recorded delete removes.
  if (base.num_nodes() != num_nodes() ||
      static_cast<int64_t>(base.num_edges()) + edits_.net_edges() !=
          static_cast<int64_t>(num_edges_)) {
    return Status::FailedPrecondition(
        "delta base does not match the last marked-clean snapshot");
  }
  return edits_.Merge(base);
}

Status PendingEdits::Apply(const Graph& base,
                           const std::vector<EdgeUpdate>& updates) {
  SIMPUSH_RETURN_NOT_OK(ValidateBatch(
      base.num_nodes(), updates, [&](NodeId src, NodeId dst) {
        const auto it = net_.find(EdgeKey(src, dst));
        const int64_t net = it == net_.end() ? 0 : it->second;
        return static_cast<EdgeId>(
            static_cast<int64_t>(CountCsrEdges(base, src, dst)) + net);
      }));
  for (const EdgeUpdate& update : updates) Record(update);
  return Status::OK();
}

void PendingEdits::Record(const EdgeUpdate& update) {
  const int64_t delta = update.kind == EdgeUpdate::Kind::kInsert ? 1 : -1;
  net_[EdgeKey(update.src, update.dst)] += delta;
  net_edges_ += delta;
  touched_.insert(update.src);
  touched_.insert(update.dst);
}

StatusOr<Graph> PendingEdits::Merge(const Graph& base) const {
  // An edit (src, dst) patches src's out-row at dst and dst's in-row at
  // src; pairs whose edits cancelled out leave both rows clean.
  const NodeId n = base.num_nodes();
  std::vector<RowEdit> out_edits, in_edits;
  for (const auto& [key, delta] : net_) {
    if (delta == 0) continue;
    const auto src = static_cast<NodeId>(key >> 32);
    const auto dst = static_cast<NodeId>(key);
    if (src >= n || dst >= n ||
        static_cast<int64_t>(CountCsrEdges(base, src, dst)) + delta < 0) {
      return Status::FailedPrecondition(
          "merge base does not hold the edges the pending edits delete");
    }
    out_edits.push_back({src, dst, delta});
    in_edits.push_back({dst, src, delta});
  }
  const auto total_edges =
      static_cast<EdgeId>(static_cast<int64_t>(base.num_edges()) + net_edges_);
  // Builds one CSR direction. Each maximal run of rows with no edit is
  // copied straight out of the base's flat array: its content is already
  // canonical and its degrees are unchanged, so only its offsets shift.
  // Each edited row is merged from its sorted base row: copy up to the
  // edit's column, then add or skip |delta| copies of it.
  const auto merge_side = [&](bool out, std::vector<RowEdit>& edits,
                              std::vector<EdgeId>& offsets,
                              std::vector<NodeId>& flat) {
    std::sort(edits.begin(), edits.end());
    offsets.resize(static_cast<size_t>(n) + 1);
    // Append into reserved capacity instead of resize-then-overwrite:
    // the flat array is written exactly once (no zero-fill pass), which
    // matters when the whole point is to be bandwidth-bound on ~m words.
    flat.reserve(total_edges);
    size_t next = 0;  // First edit not merged yet.
    for (NodeId v = 0; v < n;) {
      const NodeId w = next < edits.size() ? edits[next].row : n;
      if (w > v) {
        const EdgeId begin = RowBegin(base, out, v);
        const NodeId* row = Row(base, out, v).data();
        flat.insert(flat.end(), row, row + (RowBegin(base, out, w) - begin));
        const EdgeId shift = offsets[v] - begin;
        for (NodeId u = v; u < w; ++u) {
          offsets[u + 1] = RowBegin(base, out, u + 1) + shift;
        }
        v = w;
        continue;
      }
      const auto row = Row(base, out, v);
      auto it = row.begin();
      for (; next < edits.size() && edits[next].row == v; ++next) {
        const RowEdit& edit = edits[next];
        const auto at = std::lower_bound(it, row.end(), edit.col);
        flat.insert(flat.end(), it, at);
        if (edit.delta > 0) {
          flat.insert(flat.end(), static_cast<size_t>(edit.delta), edit.col);
        }
        it = edit.delta < 0 ? at - edit.delta : at;
      }
      flat.insert(flat.end(), it, row.end());
      offsets[v + 1] = flat.size();
      ++v;
    }
  };
  std::vector<EdgeId> out_offsets, in_offsets;
  std::vector<NodeId> out_targets, in_sources;
  merge_side(/*out=*/true, out_edits, out_offsets, out_targets);
  merge_side(/*out=*/false, in_edits, in_offsets, in_sources);
  return Graph::FromSortedCsrPair(n, std::move(out_offsets),
                                  std::move(out_targets),
                                  std::move(in_offsets),
                                  std::move(in_sources));
}

void PendingEdits::Clear() {
  net_.clear();
  touched_.clear();
  net_edges_ = 0;
}

std::vector<EdgeUpdate> GenerateUpdateStream(const Graph& graph,
                                             size_t num_updates,
                                             double delete_fraction,
                                             uint64_t seed) {
  std::vector<EdgeUpdate> updates;
  updates.reserve(num_updates);
  Rng rng(seed);
  const NodeId n = graph.num_nodes();
  if (n == 0) return updates;

  // Maintain a live multiset of edges so deletions always target a
  // currently-present edge even after earlier stream entries.
  std::vector<std::pair<NodeId, NodeId>> live;
  live.reserve(graph.num_edges() + num_updates);
  for (NodeId v = 0; v < n; ++v) {
    for (NodeId w : graph.OutNeighbors(v)) live.emplace_back(v, w);
  }

  // With a single node every insert would be a self-loop, so the stream
  // degenerates to deletions only (and ends short once none remain).
  const bool can_insert = n > 1;
  for (size_t i = 0; i < num_updates; ++i) {
    const bool do_delete =
        !live.empty() &&
        (!can_insert || rng.NextDouble() < delete_fraction);
    if (do_delete) {
      const size_t pick = rng.NextBounded(live.size());
      const auto [src, dst] = live[pick];
      live[pick] = live.back();
      live.pop_back();
      updates.push_back({EdgeUpdate::Kind::kDelete, src, dst});
    } else if (!can_insert) {
      break;
    } else {
      NodeId src = static_cast<NodeId>(rng.NextBounded(n));
      NodeId dst = static_cast<NodeId>(rng.NextBounded(n));
      while (dst == src) dst = static_cast<NodeId>(rng.NextBounded(n));
      live.emplace_back(src, dst);
      updates.push_back({EdgeUpdate::Kind::kInsert, src, dst});
    }
  }
  return updates;
}

}  // namespace simpush
