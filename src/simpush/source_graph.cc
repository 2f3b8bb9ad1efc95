#include "simpush/source_graph.h"

#include <algorithm>

namespace simpush {

namespace {
const SourceGraph::LevelEntries kEmptyLevel;
const std::vector<AttentionId> kEmptyAttention;
}  // namespace

void SourceGraph::Reset(uint32_t max_level) {
  for (uint32_t level = 0; level <= max_level_ && level < levels_.size();
       ++level) {
    levels_[level].clear();
  }
  for (auto& ids : attention_on_level_) ids.clear();
  attention_.clear();
  set_max_level(max_level);
}

const SourceGraph::LevelEntries& SourceGraph::Level(uint32_t level) const {
  if (level >= levels_.size()) return kEmptyLevel;
  return levels_[level];
}

double SourceGraph::HittingProb(uint32_t level, NodeId v) const {
  // Levels are small relative to the graph and this is not on the query
  // hot path (which iterates levels instead), so a linear scan suffices.
  for (const auto& [node, h] : Level(level)) {
    if (node == v) return h;
  }
  return 0.0;
}

bool SourceGraph::Contains(uint32_t level, NodeId v) const {
  for (const auto& [node, h] : Level(level)) {
    (void)h;
    if (node == v) return true;
  }
  return false;
}

AttentionId SourceGraph::AddAttentionNode(NodeId node, uint32_t level,
                                          double h) {
  const AttentionId id = static_cast<AttentionId>(attention_.size());
  attention_.push_back({node, level, h});
  if (attention_on_level_.size() <= level) {
    attention_on_level_.resize(level + 1);
  }
  auto& ids = attention_on_level_[level];
  assert(ids.empty() || attention_[ids.back()].node < node);
  ids.push_back(id);
  return id;
}

const std::vector<AttentionId>& SourceGraph::AttentionOnLevel(
    uint32_t level) const {
  if (level >= attention_on_level_.size()) return kEmptyAttention;
  return attention_on_level_[level];
}

bool SourceGraph::LookupAttention(uint32_t level, NodeId node,
                                  AttentionId* id) const {
  if (level >= attention_on_level_.size()) return false;
  const auto& ids = attention_on_level_[level];
  auto it = std::lower_bound(ids.begin(), ids.end(), node,
                             [this](AttentionId a, NodeId n) {
                               return attention_[a].node < n;
                             });
  if (it == ids.end() || attention_[*it].node != node) return false;
  *id = *it;
  return true;
}

size_t SourceGraph::TotalNodeOccurrences() const {
  size_t total = 0;
  for (uint32_t level = 1; level <= max_level_ && level < levels_.size();
       ++level) {
    total += levels_[level].size();
  }
  return total;
}

size_t SourceGraph::CountEdges(const Graph& graph) const {
  size_t total = 0;
  // Nodes on the last level have no G_u in-neighbors (Source-Push never
  // pushed beyond level L), so only levels 0..L-1 contribute.
  for (uint32_t level = 0; level + 1 <= max_level_; ++level) {
    for (const auto& [node, h] : Level(level)) {
      (void)h;
      total += graph.InDegree(node);
    }
  }
  return total;
}

}  // namespace simpush
