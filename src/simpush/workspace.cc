#include "simpush/workspace.h"

namespace simpush {

namespace {

// 64-bit mix (splitmix64 finalizer) — distributes packed (level, node)
// keys across the power-of-two table.
inline uint64_t MixKey(uint64_t key) {
  key ^= key >> 30;
  key *= 0xBF58476D1CE4E5B9ULL;
  key ^= key >> 27;
  key *= 0x94D049BB133111EBULL;
  key ^= key >> 31;
  return key;
}

constexpr size_t kInitialTallySlots = 1024;

}  // namespace

void LevelNodeTally::NewRound() {
  size_ = 0;
  if (++epoch_ == 0) {
    for (Slot& slot : slots_) slot.epoch = 0;
    epoch_ = 1;
  }
}

void LevelNodeTally::Grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.empty() ? kInitialTallySlots : old.size() * 2, Slot{});
  const size_t mask = slots_.size() - 1;
  for (const Slot& slot : old) {
    if (slot.epoch != epoch_) continue;  // Stale entry: drop.
    size_t i = MixKey(slot.key) & mask;
    while (slots_[i].epoch == epoch_) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

uint64_t LevelNodeTally::Increment(uint64_t key) {
  if (slots_.empty() || size_ * 4 >= slots_.size() * 3) Grow();
  const size_t mask = slots_.size() - 1;
  size_t i = MixKey(key) & mask;
  while (true) {
    Slot& slot = slots_[i];
    if (slot.epoch != epoch_) {
      slot.key = key;
      slot.count = 1;
      slot.epoch = epoch_;
      ++size_;
      return 1;
    }
    if (slot.key == key) return ++slot.count;
    i = (i + 1) & mask;
  }
}

uint64_t LevelNodeTally::Count(uint64_t key) const {
  if (slots_.empty()) return 0;
  const size_t mask = slots_.size() - 1;
  for (size_t i = MixKey(key) & mask; slots_[i].epoch == epoch_;
       i = (i + 1) & mask) {
    if (slots_[i].key == key) return slots_[i].count;
  }
  return 0;
}

void QueryWorkspace::Prepare(NodeId num_nodes) {
  dense_a.Resize(num_nodes);
  dense_b.Resize(num_nodes);
  dense_a.BeginEpoch();
  dense_b.BeginEpoch();
  frontier_a.clear();
  frontier_b.clear();
  holder_span.Resize(num_nodes);
}

}  // namespace simpush
