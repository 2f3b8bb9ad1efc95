#include "baselines/reads.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/rng.h"
#include "common/timer.h"
#include "walk/walker.h"

namespace simpush {

namespace {
inline uint64_t StepNodeKey(uint32_t step, NodeId node) {
  return (static_cast<uint64_t>(step) << 32) | node;
}
}  // namespace

Status Reads::Prepare() {
  if (prepared_) return Status::OK();
  Timer timer;
  const NodeId n = graph_.num_nodes();
  const uint32_t r = options_.num_walks;
  const uint32_t t = options_.max_depth;
  Walker walker(graph_, std::sqrt(options_.decay));
  Rng rng(options_.seed);

  walk_steps_.assign(r, std::vector<NodeId>(size_t(n) * t, kInvalidNode));
  inverted_.assign(r, {});
  for (uint32_t i = 0; i < r; ++i) {
    auto& steps = walk_steps_[i];
    auto& inv = inverted_[i];
    for (NodeId v = 0; v < n; ++v) {
      NodeId current = v;
      for (uint32_t s = 1; s <= t; ++s) {
        const NodeId next = walker.Step(current, &rng);
        if (next == kInvalidNode) break;
        steps[size_t(v) * t + (s - 1)] = next;
        inv[StepNodeKey(s, next)].push_back(v);
        current = next;
      }
    }
  }
  prepare_seconds_ = timer.ElapsedSeconds();
  prepared_ = true;
  return Status::OK();
}

size_t Reads::IndexBytes() const {
  size_t bytes = 0;
  for (const auto& steps : walk_steps_) {
    bytes += steps.capacity() * sizeof(NodeId);
  }
  for (const auto& inv : inverted_) {
    bytes += inv.size() * (sizeof(uint64_t) + sizeof(std::vector<NodeId>) + 16);
    for (const auto& [key, sources] : inv) {
      (void)key;
      bytes += sources.capacity() * sizeof(NodeId);
    }
  }
  return bytes;
}

StatusOr<std::vector<double>> Reads::Query(NodeId u) {
  if (!prepared_) {
    SIMPUSH_RETURN_NOT_OK(Prepare());
  }
  if (u >= graph_.num_nodes()) {
    return Status::InvalidArgument("query node out of range");
  }
  const NodeId n = graph_.num_nodes();
  const uint32_t r = options_.num_walks;
  const uint32_t t = options_.max_depth;
  std::vector<double> scores(n, 0.0);
  // met_in_slot[v] == i+1 marks that v already first-met u in slot i.
  std::vector<uint32_t> met_in_slot(n, 0);

  const double inv_r = 1.0 / static_cast<double>(r);
  for (uint32_t i = 0; i < r; ++i) {
    const auto& steps = walk_steps_[i];
    const auto& inv = inverted_[i];
    for (uint32_t s = 1; s <= t; ++s) {
      const NodeId u_pos = steps[size_t(u) * t + (s - 1)];
      if (u_pos == kInvalidNode) break;
      auto it = inv.find(StepNodeKey(s, u_pos));
      if (it == inv.end()) continue;
      for (NodeId v : it->second) {
        if (v == u) continue;
        if (met_in_slot[v] == i + 1) continue;  // already met this slot
        met_in_slot[v] = i + 1;
        scores[v] += inv_r;
      }
    }
  }
  scores[u] = 1.0;
  return scores;
}

Status Reads::RepairAfterInNeighborhoodChange(const Graph& current,
                                              NodeId node) {
  if (!prepared_) {
    return Status::FailedPrecondition("repair before Prepare");
  }
  if (current.num_nodes() != graph_.num_nodes()) {
    return Status::InvalidArgument(
        "repair requires a stable node-id space");
  }
  if (node >= current.num_nodes()) {
    return Status::InvalidArgument("node out of range");
  }
  const uint32_t r = options_.num_walks;
  const uint32_t t = options_.max_depth;
  Walker walker(current, std::sqrt(options_.decay));

  // Helper: erase one occurrence of `source` from an inverted list.
  auto erase_source = [](std::vector<NodeId>& sources, NodeId source) {
    auto it = std::find(sources.begin(), sources.end(), source);
    if (it != sources.end()) {
      *it = sources.back();
      sources.pop_back();
    }
  };

  for (uint32_t i = 0; i < r; ++i) {
    auto& steps = walk_steps_[i];
    auto& inv = inverted_[i];
    // Sources whose slot-i walk visits `node` at any step: transitions
    // taken *out of* `node` used its old in-neighborhood and must be
    // resampled from the first visit onward.
    std::vector<NodeId> affected;
    for (uint32_t s = 1; s <= t; ++s) {
      auto it = inv.find(StepNodeKey(s, node));
      if (it == inv.end()) continue;
      affected.insert(affected.end(), it->second.begin(), it->second.end());
    }
    // The walk *starting* at `node` takes its first transition out of
    // `node` too, even if it never revisits it.
    affected.push_back(node);
    std::sort(affected.begin(), affected.end());
    affected.erase(std::unique(affected.begin(), affected.end()),
                   affected.end());

    for (NodeId v : affected) {
      // Earliest position of this walk at `node` (step 0 for the walk
      // that starts there).
      uint32_t first_visit = t + 1;
      if (v == node) {
        first_visit = 0;
      } else {
        for (uint32_t s = 1; s <= t; ++s) {
          if (steps[size_t(v) * t + (s - 1)] == node) {
            first_visit = s;
            break;
          }
        }
      }
      if (first_visit > t) continue;  // stale inverted entry; skip
      // Deterministic per-(slot, source, node) resampling stream.
      uint64_t state = options_.seed ^
                       (0xD6E8FEB86659FD93ULL * (uint64_t(v) + 1)) ^
                       (0xA3B195354A39B70DULL * (uint64_t(node) + 1)) ^
                       (uint64_t(i) << 32);
      Rng rng(SplitMix64(&state));
      // Drop the old suffix from the inverted maps and the walk row.
      for (uint32_t s = first_visit + 1; s <= t; ++s) {
        const NodeId old_at = steps[size_t(v) * t + (s - 1)];
        if (old_at == kInvalidNode) break;
        auto it = inv.find(StepNodeKey(s, old_at));
        if (it != inv.end()) erase_source(it->second, v);
        steps[size_t(v) * t + (s - 1)] = kInvalidNode;
      }
      // Resample from `node` at step first_visit against `current`.
      NodeId at = node;
      for (uint32_t s = first_visit + 1; s <= t; ++s) {
        const NodeId next = walker.Step(at, &rng);
        if (next == kInvalidNode) break;
        steps[size_t(v) * t + (s - 1)] = next;
        inv[StepNodeKey(s, next)].push_back(v);
        at = next;
      }
    }
  }
  return Status::OK();
}

Status Reads::ValidateIndex(const Graph& current) const {
  if (!prepared_) {
    return Status::FailedPrecondition("validate before Prepare");
  }
  const NodeId n = current.num_nodes();
  const uint32_t r = options_.num_walks;
  const uint32_t t = options_.max_depth;
  for (uint32_t i = 0; i < r; ++i) {
    const auto& steps = walk_steps_[i];
    const auto& inv = inverted_[i];
    size_t walk_entries = 0;
    for (NodeId v = 0; v < n; ++v) {
      NodeId at = v;
      for (uint32_t s = 1; s <= t; ++s) {
        const NodeId next = steps[size_t(v) * t + (s - 1)];
        if (next == kInvalidNode) {
          // The rest of the row must be empty too.
          for (uint32_t s2 = s; s2 <= t; ++s2) {
            if (steps[size_t(v) * t + (s2 - 1)] != kInvalidNode) {
              return Status::Internal("walk row has a gap");
            }
          }
          break;
        }
        // next must be an in-neighbor of the previous position.
        auto in = current.InNeighbors(at);
        if (std::find(in.begin(), in.end(), next) == in.end()) {
          return Status::Internal(
              "walk transition not backed by an in-edge: " +
              std::to_string(at) + " -> " + std::to_string(next));
        }
        // Inverted map must contain this visit exactly.
        auto it = inv.find(StepNodeKey(s, next));
        if (it == inv.end() ||
            std::count(it->second.begin(), it->second.end(), v) != 1) {
          return Status::Internal("inverted map missing a walk visit");
        }
        ++walk_entries;
        at = next;
      }
    }
    size_t inverted_entries = 0;
    for (const auto& [key, sources] : inv) {
      (void)key;
      inverted_entries += sources.size();
    }
    if (inverted_entries != walk_entries) {
      return Status::Internal("inverted map has stale entries");
    }
  }
  return Status::OK();
}

}  // namespace simpush
