#include "simpush/hitting.h"

#include <algorithm>
#include <span>
#include <vector>

#include "common/touched_bits.h"
#include "simpush/workspace.h"

namespace simpush {

HittingVector HittingTable::VectorAt(uint32_t level, NodeId v) const {
  if (level >= num_levels_) return {};
  const LevelVectors& vectors = per_level_[level];
  auto it = std::lower_bound(
      vectors.nodes.begin(), vectors.nodes.end(), v,
      [](const NodeSpan& span, NodeId node) { return span.node < node; });
  if (it == vectors.nodes.end() || it->node != v) return {};
  return {vectors.pool.data() + it->begin, vectors.pool.data() + it->end};
}

double HittingTable::Probability(uint32_t level, NodeId v,
                                 AttentionId target) const {
  const HittingVector vec = VectorAt(level, v);
  auto it = std::lower_bound(
      vec.begin(), vec.end(), target,
      [](const auto& entry, AttentionId id) { return entry.first < id; });
  if (it == vec.end() || it->first != target) return 0.0;
  return it->second;
}

size_t HittingTable::NumVectors() const {
  size_t total = 0;
  for (uint32_t level = 0; level < num_levels_; ++level) {
    total += per_level_[level].nodes.size();
  }
  return total;
}

size_t HittingTable::NumEntries() const {
  size_t total = 0;
  for (uint32_t level = 0; level < num_levels_; ++level) {
    total += per_level_[level].pool.size();
  }
  return total;
}

void HittingTable::Reset(uint32_t max_level) {
  const uint32_t levels = max_level + 1;
  if (per_level_.size() < levels) per_level_.resize(levels);
  for (uint32_t level = 0; level < std::max(levels, num_levels_); ++level) {
    per_level_[level].nodes.clear();
    per_level_[level].pool.clear();
  }
  num_levels_ = levels;
}

Status ComputeHittingTable(const Graph& graph, const SourceGraph& gu,
                           double sqrt_c, QueryWorkspace* workspace,
                           HittingTable* table, const CancelToken* cancel) {
  workspace->Prepare(graph.num_nodes());
  const uint32_t max_level = gu.max_level();
  table->Reset(max_level);
  if (max_level < 2) return Status::OK();  // No targets deeper than level 1.

  const size_t num_attention = gu.num_attention();
  // Dense scratch accumulator over attention ids, paired with a
  // TouchedBits of touched ids. The merge loop below runs ~10 pool
  // entries per stored entry, so its per-entry cost decides the whole
  // stage: the mask makes it branchless (unconditional OR instead of
  // the unpredictable accum[t] == 0 test a touched-list needs), and
  // draining it at emit time yields the targets already in ascending id
  // order — the per-receiver sort disappears. The emit zero-restores
  // both the accumulator slots and the mask, so the scratch stays clean
  // without per-receiver clears.
  std::vector<double>& accum = workspace->attention_accum;
  if (accum.size() < num_attention) accum.resize(num_attention, 0.0);
  TouchedBits& targets = workspace->scratch_bits;
  targets.Reset(num_attention);
  // Node masks of a pushed level (see the push branch below).
  TouchedBits& member_bits = workspace->member_bits;
  TouchedBits& receiver_bits = workspace->receiver_bits;
  EpochArray<uint64_t>& holder_span = workspace->holder_span;
  std::vector<NodeId>& bucket = workspace->frontier_a;

  // Self entries h̃^(0)(w, w) = 1 of the attention occurrences w on a
  // level: the whole vector of each, at the deepest level and at any
  // level without holders above it (nothing to merge there). A level's
  // attention ids ascend by node (SourceGraph's contract), so the
  // vectors come out in the node order VectorAt searches.
  const auto emit_self_entries = [&](uint32_t level,
                                     HittingTable::LevelVectors* here) {
    for (AttentionId id : gu.AttentionOnLevel(level)) {
      const uint32_t begin = static_cast<uint32_t>(here->pool.size());
      here->pool.emplace_back(id, 1.0);
      here->nodes.push_back({gu.attention_nodes()[id].node, begin, begin + 1});
    }
  };
  emit_self_entries(max_level, &table->per_level_[max_level]);

  // The direction rule (see hitting.h): pull iff the members' in-edges
  // are at most kHittingPushEdgeCost times the holders' out-edges. The
  // member sum stops as soon as it exceeds that budget.
  const auto pulls = [&](const std::vector<NodeId>& members,
                         const HittingTable::LevelVectors& above) {
    uint64_t budget = 0;
    for (const HittingTable::NodeSpan& holder : above.nodes) {
      budget += graph.OutDegree(holder.node);
    }
    budget *= kHittingPushEdgeCost;
    uint64_t member_edges = 0;
    for (const NodeId v : members) {
      member_edges += graph.InDegree(v);
      if (member_edges > budget) return false;
    }
    return true;
  };

  // One receiver's vector is built by merging holder spans into accum
  // and then draining the touched targets.
  const auto merge = [&](std::span<const HittingEntry> entries,
                         double scale) {
    for (const auto& [target, prob] : entries) {
      accum[target] += prob * scale;
      targets.Mark(target);
    }
  };
  const auto emit = [&](uint32_t level, NodeId v,
                        HittingTable::LevelVectors* here) {
    const uint32_t begin = static_cast<uint32_t>(here->pool.size());
    // Self entry when v is itself an attention node on this level
    // (level >= 2): its id is distinct from every pulled target id
    // (those are occurrences at deeper levels), so a plain sorted
    // merge of one element suffices.
    AttentionId self_id = 0;
    bool self_pending = level >= 2 && gu.LookupAttention(level, v, &self_id);
    targets.Drain([&](size_t i) {
      const AttentionId target = static_cast<AttentionId>(i);
      if (self_pending && self_id < target) {
        here->pool.emplace_back(self_id, 1.0);
        self_pending = false;
      }
      here->pool.emplace_back(target, accum[target]);
      accum[target] = 0.0;
    });
    if (self_pending) here->pool.emplace_back(self_id, 1.0);
    const uint32_t end = static_cast<uint32_t>(here->pool.size());
    if (end > begin) here->nodes.push_back({v, begin, end});
  };

  // Level ℓ from level ℓ+1, for ℓ = L-1 .. 1. The holders are the
  // level-(ℓ+1) nodes with a vector; a member v of level ℓ merges the
  // vector of each holder w with an edge w→v, scaled by √c/d_I(v). A
  // level takes the cheaper of two directions (`pulls`), and both merge
  // the same spans in the same order: ascending holder, once per
  // parallel edge — a sorted in-row lists its holders that way, and the
  // push scans holders ascending. The sums, hence the table, are
  // bit-identical either way. Either way the receivers come out
  // ascending, so here.nodes needs no sort for VectorAt's search.
  //
  // Every poll is made between receivers, after the previous emit
  // drained `targets`, so a cancelled return leaves that mask clear.
  uint32_t since_poll = 0;
  for (uint32_t level = max_level - 1; level >= 1; --level) {
    const HittingTable::LevelVectors& above = table->per_level_[level + 1];
    HittingTable::LevelVectors* here = &table->per_level_[level];
    const std::vector<NodeId>& members = gu.Level(level);
    if (above.nodes.empty()) {
      // Nothing to merge: only attention occurrences get a vector.
      if (level >= 2) emit_self_entries(level, here);
    } else if (pulls(members, above)) {
      // Pull: every member walks its in-row. holder_span maps a holder
      // to its packed pool-span bounds (begin << 32 | end), so each
      // in-neighbor costs ONE random access; end > begin for every
      // stored span, so a packed value is never 0 and Get() == 0
      // cleanly reads as "not a holder".
      holder_span.BeginEpoch();
      for (const HittingTable::NodeSpan& holder : above.nodes) {
        holder_span.Set(holder.node,
                        (static_cast<uint64_t>(holder.begin) << 32) |
                            holder.end);
      }
      for (const NodeId v : members) {
        // Cancellation stride over pulls; on a fired token the table is
        // left partial and the caller discards it.
        if (++since_poll >= kCancelCheckStride) {
          since_poll = 0;
          SIMPUSH_RETURN_NOT_OK(CheckCancel(cancel));
        }
        const uint32_t deg = graph.InDegree(v);
        // A dangling node (deg == 0) pulls nothing, but when it is an
        // attention node its self entry must still be emitted so
        // shallower levels can see it.
        if (deg > 0) {
          const double scale = sqrt_c / deg;
          const std::span<const NodeId> in = graph.InNeighbors(v);
          // Two-stage software pipeline over the in-neighbors: the
          // holder_span probes are random node-indexed accesses, hinted
          // kSpanLookahead ahead; at kPoolLookahead (close enough that
          // its span bounds are already cached from the first stage) the
          // span bounds are re-read to hint the pool entries themselves —
          // the level's pool outgrows L2, so the merge loop's first touch
          // of each span is otherwise a stall.
          constexpr size_t kSpanLookahead = 8;
          constexpr size_t kPoolLookahead = 3;
          const size_t n_in = in.size();
          for (size_t i = 0; i < n_in; ++i) {
            if (i + kSpanLookahead < n_in) {
              holder_span.Prefetch(in[i + kSpanLookahead]);
            }
            if (i + kPoolLookahead < n_in) {
              const uint64_t ahead = holder_span.Get(in[i + kPoolLookahead]);
#if defined(__GNUC__) || defined(__clang__)
              if (ahead != 0) {
                __builtin_prefetch(&above.pool[ahead >> 32], /*rw=*/0,
                                   /*locality=*/1);
              }
#endif
            }
            const uint64_t packed = holder_span.Get(in[i]);
            if (packed == 0) continue;
            merge({above.pool.data() + (packed >> 32),
                   above.pool.data() + static_cast<uint32_t>(packed)},
                  scale);
          }
        }
        emit(level, v, here);
      }
    } else {
      // Push: a counting sort of the holders' out-edges into
      // per-receiver buckets. member_bits marks the level; a scan of
      // the holders' out-rows counts each member's holder in-edges in
      // holder_span and marks it in receiver_bits (so do this level's
      // attention occurrences, which need a self entry even with an
      // empty bucket). Offsets are laid out in ascending receiver
      // order, a second scan fills the buckets (holder indices, in
      // frontier_a, idle between Source-Push and Reverse-Push) in
      // ascending holder order, and a last pass over the receivers
      // merges each bucket. Both out-row scans poll every
      // kCancelCheckStride edges: a web level can hold half a million
      // of them. Both masks are Reset first, so one a cancelled level
      // left dirty is never read.
      member_bits.Reset(graph.num_nodes());
      receiver_bits.Reset(graph.num_nodes());
      for (const NodeId v : members) member_bits.Mark(v);
      holder_span.BeginEpoch();
      if (level >= 2) {
        for (AttentionId id : gu.AttentionOnLevel(level)) {
          const NodeId v = gu.attention_nodes()[id].node;
          holder_span.Ref(v);  // Count 0 until a holder edge adds to it.
          receiver_bits.Mark(v);
        }
      }
      // Visits (holder index, member) for every holder out-edge into the
      // level, holders ascending; the token's status once it fired.
      const auto for_each_hit = [&](auto&& visit) {
        for (uint32_t hi = 0; hi < above.nodes.size(); ++hi) {
          for (const NodeId v : graph.OutNeighbors(above.nodes[hi].node)) {
            if (++since_poll >= kCancelCheckStride) {
              since_poll = 0;
              SIMPUSH_RETURN_NOT_OK(CheckCancel(cancel));
            }
            if (member_bits.Test(v)) visit(hi, v);
          }
        }
        return Status::OK();
      };
      SIMPUSH_RETURN_NOT_OK(for_each_hit([&](uint32_t, NodeId v) {
        holder_span.Accumulate(v, 1);
        receiver_bits.Mark(v);
      }));
      // Counts become packed (begin << 32 | cursor) bucket bounds; the
      // fill advances the cursor to the bucket's end.
      uint64_t offset = 0;
      receiver_bits.ForEach([&](size_t v) {
        uint64_t& slot = holder_span.RawRef(static_cast<NodeId>(v));
        const uint64_t count = slot;
        slot = offset << 32 | offset;
        offset += count;
      });
      bucket.resize(offset);
      SIMPUSH_RETURN_NOT_OK(for_each_hit([&](uint32_t hi, NodeId v) {
        uint64_t& slot = holder_span.RawRef(v);
        bucket[static_cast<uint32_t>(slot)] = hi;
        ++slot;
      }));
      Status status;
      receiver_bits.ForEach([&](size_t i) {
        if (!status.ok()) return;
        if (++since_poll >= kCancelCheckStride) {
          since_poll = 0;
          status = CheckCancel(cancel);
          if (!status.ok()) return;
        }
        const NodeId v = static_cast<NodeId>(i);
        const uint64_t slot = holder_span.RawRef(v);
        const uint32_t begin = static_cast<uint32_t>(slot >> 32);
        const uint32_t end = static_cast<uint32_t>(slot);
        // An attention-only receiver may be dangling: no bucket, no
        // division.
        const double scale = end > begin ? sqrt_c / graph.InDegree(v) : 0.0;
        for (uint32_t k = begin; k < end; ++k) {
          const HittingTable::NodeSpan& holder = above.nodes[bucket[k]];
          merge({above.pool.data() + holder.begin,
                 above.pool.data() + holder.end},
                scale);
        }
        emit(level, v, here);
      });
      SIMPUSH_RETURN_NOT_OK(status);
    }
    if (level == 1) break;  // uint32_t wrap guard.
  }
  return Status::OK();
}

}  // namespace simpush
