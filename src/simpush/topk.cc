#include "simpush/topk.h"

#include <algorithm>
#include <limits>

namespace simpush {
namespace {

// Rank order: the higher score first, ties to the smaller id.
bool RanksBefore(const TopKEntry& a, const TopKEntry& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.node < b.node;
}

// Replaces the root of a heap whose root is its worst entry with
// `entry`, which out-ranks that root, and sifts it down into place.
void ReplaceWorst(TopKEntry* heap, size_t size, const TopKEntry& entry) {
  size_t hole = 0;
  for (size_t child = 1; child < size; child = 2 * hole + 1) {
    if (child + 1 < size && RanksBefore(heap[child], heap[child + 1])) {
      ++child;
    }
    if (!RanksBefore(entry, heap[child])) break;
    heap[hole] = heap[child];
    hole = child;
  }
  heap[hole] = entry;
}

// The one selector core: candidate i is node id_at(i) scoring scores[i].
// `*top` holds a heap of the best k candidates so far whose root is the
// worst of them; a candidate enters only by out-ranking that root.
// `floor` is a score no entrant can be below: the smallest positive
// double until the heap fills, then the root's score. So one compare
// rejects zeros, negatives, NaN and, once the heap is full, almost
// every other score; RanksBefore then breaks ties at the floor. Only
// positive scores reach the heap, so RanksBefore is a strict total
// order on it.
template <typename IdAt>
void SelectInto(std::span<const double> scores, IdAt id_at, size_t k,
                NodeId exclude, std::vector<TopKEntry>* top) {
  top->resize(std::min(k, scores.size()));
  const size_t capacity = top->size();
  if (capacity == 0) return;
  TopKEntry* const heap = top->data();
  size_t size = 0;
  double floor = std::numeric_limits<double>::denorm_min();
  for (size_t i = 0; i < scores.size(); ++i) {
    if (!(scores[i] >= floor)) continue;
    const TopKEntry candidate{id_at(i), scores[i]};
    if (candidate.node == exclude) continue;
    if (size < capacity) {
      heap[size++] = candidate;
      std::push_heap(heap, heap + size, RanksBefore);
    } else if (RanksBefore(candidate, heap[0])) {
      ReplaceWorst(heap, capacity, candidate);
    } else {
      continue;
    }
    if (size == capacity) floor = heap[0].score;
  }
  top->resize(size);
  std::sort_heap(top->begin(), top->end(), RanksBefore);
}

}  // namespace

void SelectTopK(const std::vector<double>& scores, size_t k, NodeId exclude,
                std::vector<TopKEntry>* top) {
  SelectInto(
      scores, [](size_t v) { return static_cast<NodeId>(v); }, k, exclude,
      top);
}

void SelectTopK(std::span<const NodeId> ids, std::span<const double> scores,
                size_t k, NodeId exclude, std::vector<TopKEntry>* top) {
  SelectInto(
      scores, [ids](size_t i) { return ids[i]; }, k, exclude, top);
}

StatusOr<TopKResult> QueryTopK(QueryRunner* runner, NodeId u, size_t k) {
  SIMPUSH_ASSIGN_OR_RETURN(SimPushResult full, runner->Query(u));
  TopKResult result;
  SelectTopK(full.scores, k, u, &result.entries);
  result.stats = full.stats;
  return result;
}

}  // namespace simpush
