#include "simpush/source_graph.h"

#include <algorithm>

namespace simpush {

namespace {
const std::vector<NodeId> kEmptyLevel;
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

const std::vector<NodeId>& SourceGraph::Level(uint32_t level) const {
  if (level >= levels_.size()) return kEmptyLevel;
  return levels_[level];
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

}  // namespace simpush
