// Epoch-stamped dense scratch arrays: logically "an array of T reset to
// T{} before every use", physically a pair of flat vectors whose reset
// is a single generation-counter bump instead of an O(n) clear.
//
// The query hot path needs n-sized scratch (per-level visit counts, the
// hitting table's span maps) that each use touches sparsely. Zeroing it
// per use costs O(n) — on web-scale graphs that dwarfs the work itself.
// An EpochArray stamps every written slot with the current epoch; a slot
// whose stamp is stale reads as T{}. Starting a new epoch is O(1), with
// one O(n) stamp wipe every 2^32 - 1 epochs at wraparound. (Accumulators
// whose consumers visit every slot they wrote are zero-restored instead;
// see simpush/workspace.h.)

#ifndef SIMPUSH_COMMON_EPOCH_ARRAY_H_
#define SIMPUSH_COMMON_EPOCH_ARRAY_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace simpush {

template <typename T>
class EpochArray {
 public:
  /// Grows to at least `n` slots; existing slots keep their contents.
  /// Never shrinks, so repeated Resize with the same n is free.
  void Resize(size_t n) {
    if (n > values_.size()) {
      values_.resize(n, T{});
      epochs_.resize(n, 0);
    }
  }

  /// O(1) logical clear: every slot reads as T{} afterwards.
  void BeginEpoch() {
    if (++epoch_ == 0) {  // Wrapped: stale stamps would alias, wipe them.
      std::fill(epochs_.begin(), epochs_.end(), 0u);
      epoch_ = 1;
    }
  }

  /// True iff slot i was written in the current epoch.
  bool IsSet(size_t i) const { return epochs_[i] == epoch_; }

  /// Value of slot i; T{} when unset this epoch.
  T Get(size_t i) const { return IsSet(i) ? values_[i] : T{}; }

  /// Writes slot i unconditionally.
  void Set(size_t i, T value) {
    epochs_[i] = epoch_;
    values_[i] = value;
  }

  /// Mutable reference to slot i, initializing it to T{} if stale.
  T& Ref(size_t i) {
    if (epochs_[i] != epoch_) {
      epochs_[i] = epoch_;
      values_[i] = T{};
    }
    return values_[i];
  }

  /// Unchecked mutable reference. Precondition: IsSet(i).
  T& RawRef(size_t i) { return values_[i]; }

  /// values_[i] += delta, treating a stale slot as T{}. One branch, no
  /// membership signal back to the caller — scatter loops that track
  /// membership elsewhere (e.g. a bitmask) use this instead of
  /// IsSet + Set/RawRef to keep the hot path to a single probe.
  void Accumulate(size_t i, T delta) {
    if (epochs_[i] != epoch_) {
      epochs_[i] = epoch_;
      values_[i] = delta;
    } else {
      values_[i] += delta;
    }
  }

  /// Hints the loads behind a future Get(i)/IsSet(i) (both the stamp
  /// and the value line). Used by loops that can see several random
  /// indices ahead, so the misses overlap. No-op when unsupported.
  void Prefetch(size_t i) const {
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(&epochs_[i], /*rw=*/0, /*locality=*/1);
    __builtin_prefetch(&values_[i], /*rw=*/0, /*locality=*/1);
#endif
  }

  size_t size() const { return values_.size(); }

 private:
  std::vector<T> values_;
  std::vector<uint32_t> epochs_;
  uint32_t epoch_ = 1;  // epochs_ starts all-zero, so nothing is set.
};

}  // namespace simpush

#endif  // SIMPUSH_COMMON_EPOCH_ARRAY_H_
