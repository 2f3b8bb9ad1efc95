#include "simpush/source_push.h"

#include <algorithm>
#include <cstddef>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/touched_bits.h"
#include "simpush/workspace.h"
#include "walk/walk_batch.h"
#include "walk/walker.h"

namespace simpush {

// Algorithm 2 lines 1-8: sample N √c-walks from u, count per-level
// visits H^(l)(u, v), and return the largest level where some node's
// count reaches the detection threshold (i.e. an empirical hitting
// probability >= ε_h/2). Walks stop at L* steps, so L <= L*.
//
// This is the per-query latency floor of SimPush, so the walks run
// through the batched SoA kernel (walk/walk_batch.h): waves of lockstep
// walks with prefetched adjacency loads, each walk on its own counter
// stream Rng::ForWalk(walk_seed, u, i). A visit only appends its node
// to the level's list in workspace->level_visits; nothing is counted
// while the walks run. Source-Push reads the keys at levels L-1 and L
// (C_{L-1} and C_L) alone, so the counting pass afterwards counts only
// those two levels, deepest first, into a per-node epoch array:
// - a level with fewer visits than the threshold is skipped, since no
//   node there can reach it;
// - the first level where a count reaches the threshold is L;
// - level L-1 is counted as well, then the pass stops.
// Each key whose count reaches the threshold is appended to
// workspace->level_candidates once. Counting starts after the last
// walk, so L and the candidates equal a full tally's for any walk order
// or wave size; the order only permutes each list (and so the
// candidates, which their consumers sort). The epoch array is
// holder_span, idle until the hitting stage, which starts a new epoch
// before using it.
uint32_t DetectMaxLevel(const Graph& graph, NodeId u,
                        const DerivedParams& params, Rng* rng,
                        QueryWorkspace* workspace, uint64_t* walks_out,
                        const CancelToken* cancel, uint32_t wave_size) {
  std::vector<std::vector<NodeId>>& visits = workspace->level_visits;
  std::vector<uint64_t>& candidates = workspace->level_candidates;
  if (visits.size() <= params.l_star) visits.resize(params.l_star + 1);
  for (std::vector<NodeId>& list : visits) list.clear();
  candidates.clear();
  // One draw reserves the walk-stream key. `rng` is itself a pure
  // function of (options.seed, u), so every walk stream stays pinned to
  // (seed, node, walk_index); downstream consumers of `rng` see exactly
  // one draw here regardless of wave size, walk count, or cancellation.
  const uint64_t walk_seed = rng->Next();
  const Walker walker(graph, params.sqrt_c);
  *walks_out = RunWalkWaves(
      graph, u, walk_seed, params.num_walks, params.l_star,
      walker.inv_log_sqrt_c(),
      [&visits](uint32_t level, NodeId node) { visits[level].push_back(node); },
      cancel, wave_size);
  // Cancelled: the caller re-checks the token and aborts, so the
  // partial log is not counted.
  if (*walks_out < params.num_walks) return 0;

  EpochArray<uint64_t>& counts = workspace->holder_span;
  counts.Resize(graph.num_nodes());
  const uint64_t threshold = params.level_count_threshold;
  // Counts one level's visits; true iff some count reached the
  // threshold. The counts are random node-indexed accesses, hinted a
  // fixed distance ahead so their misses overlap.
  constexpr size_t kCountLookahead = 16;
  const auto count_level = [&](uint32_t level) {
    const std::vector<NodeId>& list = visits[level];
    if (list.size() < threshold) return false;
    const size_t found = candidates.size();
    const uint64_t tag = static_cast<uint64_t>(level) << 32;
    counts.BeginEpoch();
    for (size_t i = 0; i < list.size(); ++i) {
      if (i + kCountLookahead < list.size()) {
        counts.Prefetch(list[i + kCountLookahead]);
      }
      if (++counts.Ref(list[i]) == threshold) {
        candidates.push_back(tag | list[i]);
      }
    }
    return candidates.size() > found;
  };
  for (uint32_t level = params.l_star; level >= 1; --level) {
    if (!count_level(level)) continue;
    count_level(level - 1);  // Level 0 has no visits: a no-op at L = 1.
    return level;
  }
  return 0;
}

namespace {

// Fills workspace->demand_last with C_L and, when L >= 3,
// workspace->demand_prev with C_{L-1} ∪ O(C_L), both ascending.
// workspace->scratch_bits must be all clear on entry and is all clear
// again on return.
void CollectDemandNodes(const Graph& graph, uint32_t max_level,
                        QueryWorkspace* workspace) {
  std::vector<NodeId>& last = workspace->demand_last;
  std::vector<NodeId>& prev = workspace->demand_prev;
  TouchedBits& bits = workspace->scratch_bits;
  last.clear();
  prev.clear();
  for (const uint64_t key : workspace->level_candidates) {
    const uint32_t level = static_cast<uint32_t>(key >> 32);
    const NodeId node = static_cast<NodeId>(key);
    if (level == max_level) {
      last.push_back(node);
    } else if (level + 1 == max_level && max_level >= 3) {
      bits.Mark(node);
    }
  }
  std::sort(last.begin(), last.end());
  if (max_level < 3) return;
  for (const NodeId w : last) {
    for (const NodeId v : graph.OutNeighbors(w)) bits.Mark(v);
  }
  bits.Drain([&](size_t v) { prev.push_back(static_cast<NodeId>(v)); });
}

// True iff some node of `row` is marked in `bits`.
bool AnyMarked(const TouchedBits& bits, std::span<const NodeId> row) {
  return std::any_of(row.begin(), row.end(),
                     [&bits](NodeId v) { return bits.Test(v); });
}

}  // namespace

Status SourcePushInto(const Graph& graph, NodeId u,
                      const SimPushOptions& options,
                      const DerivedParams& params, Rng* rng,
                      QueryWorkspace* workspace, SourceGraph* gu,
                      SourcePushStats* stats,
                      const CancelToken* cancel) {
  if (u >= graph.num_nodes()) {
    return Status::InvalidArgument("query node " + std::to_string(u) +
                                   " out of range");
  }
  workspace->Prepare(graph.num_nodes());

  uint32_t max_level = params.l_star;
  uint64_t walks = 0;
  if (options.use_level_detection) {
    max_level = DetectMaxLevel(graph, u, params, rng, workspace, &walks,
                               cancel, kDefaultWalkWaveSize);
    SIMPUSH_RETURN_NOT_OK(CheckCancel(cancel));
  }
  // Demand levels: with L detected, levels L-1 and L are evaluated
  // only where a score can read them. Lemma 5 puts every attention
  // occurrence in C (A_u^(ℓ) ⊆ C_ℓ for all ℓ at once, w.p. >= 1-δ), and
  // the deepest levels are read at three kinds of node only: attention
  // nodes (A_u^(L) ⊆ C_L, A_u^(L-1) ⊆ C_{L-1}), the level-(L-1) nodes
  // level L is pulled from (O(C_L)), and the level-(L-1) receivers of
  // the hitting table (Algorithm 3), which are out-neighbors of level-L
  // attention nodes, so inside O(C_L) too. Reverse-Push reads only the
  // attention set. Levels <= L-2 stay whole.
  const bool demand = options.use_level_detection && max_level >= 2;
  // Even when sampling saw nothing past level 0 (e.g. u has no
  // in-neighbors), level 1 may still hold attention nodes with
  // probability mass below the sampling threshold only by chance; the
  // propagation itself is cheap for one level, so explore at least 1.
  max_level = std::max<uint32_t>(max_level, 1);

  gu->Reset(max_level);
  gu->AddEntry(0, u);

  // Lines 9-21: level-wise propagation h^(ℓ+1)(u, v') += √c·h^(ℓ)(u,v)/d_I(v)
  // for every in-neighbor v' of every level-ℓ node v, picking the
  // attention nodes (h >= ε_h) as each level is written. G_u's level ℓ,
  // ascending by node, is itself the frontier of level ℓ+1. The per-node
  // buffers are the workspace's two zero-restored accumulators (hash
  // maps per level would dominate query time on dense graphs): `share`
  // holds the frontier's shares √c·h/d_I, `next` receives the next
  // level, and each member's share is written into `next` as the member
  // is emitted, so no level keeps its h beyond the attention set. The
  // two swap after every level, and both are all +0.0 again on every
  // return, cancelled ones included.
  //
  // A level whose frontier has more than m/kPullEdgeFraction in-edges
  // is computed by pulling instead (direction-optimizing traversal,
  // Beamer et al., SC 2012): every node v' sums the shares of its
  // out-neighbors, h(v') = Σ_{v ∈ O(v')} share[v], where share is +0.0
  // off the frontier. The two directions are bit-identical. The push adds v's
  // share to v' once per edge v'→v, in ascending v (the frontier is
  // sorted), starting from +0.0; the out-CSR row of v' is sorted, so the
  // pull adds the same shares in the same order, and adding +0.0 for a
  // non-frontier v leaves a sum unchanged. Both emit the next level
  // ascending by node.
  //
  // Membership is by edges in both directions: v' joins level ℓ+1 iff
  // some out-neighbor is on the frontier, even should every share it
  // receives underflow to +0.0. The push marks each receiver in
  // scratch_bits. The pull reads membership off the sum (shares are
  // >= 0, so a sum is +0.0 only if all its addends are); only when a
  // frontier share is itself +0.0 does a row summing to +0.0 fall back
  // to testing its out-neighbors against scratch_bits, in which the
  // pull marks exactly the frontier nodes with a +0.0 share.
  //
  // A demand level is pulled at its demand nodes only (ascending), so
  // each evaluated member gets the h of the whole level's member: the
  // pull over a node's out-row is the same sum either way, and a
  // level-L node's out-neighbors all lie in the evaluated level L-1.
  const NodeId n = graph.num_nodes();
  double* share = workspace->accum_a.data();
  double* next = workspace->accum_b.data();
  TouchedBits& bits = workspace->scratch_bits;
  bits.Reset(n);  // Clean even after a cancelled predecessor.
  if (demand) CollectDemandNodes(graph, max_level, workspace);
  const EdgeId pull_edges = graph.num_edges() / kPullEdgeFraction;
  EdgeId frontier_edges = graph.InDegree(u);  // In-edges of the frontier.
  // Whether some frontier node with in-edges has a +0.0 share; the same
  // for the level being emitted.
  bool zero_share = false;
  bool next_zero_share = false;
  // Writes v's share √c·h/d_I(v) into `slots`; a node without in-edges
  // is nobody's out-neighbor, so its slot stays +0.0.
  const auto set_share = [&](double* slots, NodeId v, double h) {
    const uint32_t deg = graph.InDegree(v);
    if (deg == 0) return;
    slots[v] = params.sqrt_c * h / deg;
    if (slots[v] == 0.0) next_zero_share = true;
  };
  set_share(share, u, 1.0);
  zero_share = next_zero_share;
  uint32_t since_poll = 0;
  for (uint32_t level = 0; level < max_level; ++level) {
    const std::vector<NodeId>& frontier = gu->Level(level);
    if (frontier.empty()) break;
    const std::vector<NodeId>* targets = nullptr;  // Null: whole level.
    if (demand && level + 1 == max_level) {
      targets = &workspace->demand_last;
    } else if (demand && level + 2 == max_level && max_level >= 3) {
      targets = &workspace->demand_prev;
    }
    const bool pull = targets != nullptr || frontier_edges > pull_edges;
    frontier_edges = 0;  // Re-summed below for the next frontier.
    next_zero_share = false;
    // Appends v' to level ℓ+1 (ascending calls), and to A_u^(ℓ+1) if
    // h >= ε_h: levels are written in order, so attention ids come out
    // level by level, ascending by node within a level. The deepest
    // level propagates nowhere, so it writes no shares.
    const auto emit = [&](NodeId vp, double h) {
      gu->AddEntry(level + 1, vp);
      frontier_edges += graph.InDegree(vp);
      if (h >= params.eps_h) gu->AddAttentionNode(vp, level + 1, h);
      if (level + 1 < max_level) set_share(next, vp, h);
    };
    // A fired token: zeroes the frontier's shares, the shares of the
    // members emitted so far and a push's partial sums (marked in
    // bits), then returns its status.
    const auto cancelled = [&](Status status) {
      for (const NodeId v : frontier) share[v] = 0.0;
      for (const NodeId v : gu->Level(level + 1)) next[v] = 0.0;
      bits.Drain([&](size_t v) { next[v] = 0.0; });
      return status;
    };
    if (pull) {
      if (zero_share) {
        for (const NodeId v : frontier) {
          if (share[v] == 0.0 && graph.InDegree(v) > 0) bits.Mark(v);
        }
      }
      const size_t count = targets != nullptr ? targets->size() : n;
      for (size_t i = 0; i < count; ++i) {
        if (++since_poll >= kCancelCheckStride) {
          since_poll = 0;
          if (Status status = CheckCancel(cancel); !status.ok()) {
            return cancelled(std::move(status));
          }
        }
        const NodeId vp =
            targets != nullptr ? (*targets)[i] : static_cast<NodeId>(i);
        const std::span<const NodeId> row = graph.OutNeighbors(vp);
        double h = 0.0;
        for (const NodeId v : row) h += share[v];
        if (h == 0.0 && !(zero_share && AnyMarked(bits, row))) continue;
        emit(vp, h);
      }
      for (const NodeId v : frontier) share[v] = 0.0;
      if (zero_share) bits.Reset(n);
    } else {
      for (size_t i = 0; i < frontier.size(); ++i) {
        // Per-occurrence cancellation stride (same contract as the walk
        // loop above: a poll reads state only).
        if (++since_poll >= kCancelCheckStride) {
          since_poll = 0;
          if (Status status = CheckCancel(cancel); !status.ok()) {
            return cancelled(std::move(status));
          }
        }
        // The frontier is sorted ascending, so the in-CSR rows stream
        // near-sequentially; hint the next rows' offsets so their misses
        // overlap with this row's pushes.
        if (i + 4 < frontier.size()) {
          graph.PrefetchInOffsets(frontier[i + 4]);
        }
        const NodeId v = frontier[i];
        const double s = share[v];
        share[v] = 0.0;
        for (const NodeId vp : graph.InNeighbors(v)) {
          next[vp] += s;
          bits.Mark(vp);
        }
      }
      // The ascending drain makes the next level's traversal sequential
      // over the in-CSR, makes the accumulation order — and hence the
      // float sums — a function of the graph alone (never of discovery
      // order), and appends the level's members in the ascending node
      // order SourceGraph requires. Each sum's slot then takes the
      // member's share, or +0.0.
      bits.Drain([&](size_t i) {
        const double h = next[i];
        next[i] = 0.0;
        emit(static_cast<NodeId>(i), h);
      });
    }
    std::swap(share, next);
    zero_share = next_zero_share;
  }

  if (stats != nullptr) {
    stats->detected_level = max_level;
    stats->walks_sampled = walks;
    stats->gu_node_occurrences = gu->TotalNodeOccurrences();
    stats->num_attention = gu->num_attention();
  }
  return Status::OK();
}

}  // namespace simpush
