// TouchedBits: the engine's one "which indices did this pass touch"
// set. A word-packed bitmask over [0, n): scatter loops Mark() with an
// unconditional OR (no was-it-set branch, no push per first touch), and
// ForEach/Drain walk the set bits in ascending index order, so a level
// or a vector built through it comes out sorted without a sort.
//
// There is deliberately no tracking of the touched word range: ForEach
// and Drain scan every word. Keeping a range current costs a compare
// pair on every Mark, which measured slower on Source-Push's scatter
// than the n/64-word scan it saves.

#ifndef SIMPUSH_COMMON_TOUCHED_BITS_H_
#define SIMPUSH_COMMON_TOUCHED_BITS_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace simpush {

class TouchedBits {
 public:
  /// Sizes the mask to [0, n) with every bit clear, whatever a previous
  /// (possibly interrupted) use left behind. O(n/64); reuses capacity,
  /// so steady state stays allocation-free.
  void Reset(size_t n) { words_.assign((n + 63) / 64, 0); }

  /// Sets bit i. Precondition: i < n.
  void Mark(size_t i) { words_[i >> 6] |= uint64_t{1} << (i & 63); }

  /// True iff bit i is set. Precondition: i < n.
  bool Test(size_t i) const { return (words_[i >> 6] >> (i & 63)) & 1; }

  /// Calls f(i) for every set bit i, ascending; the bits stay set.
  template <typename F>
  void ForEach(F&& f) const {
    for (size_t w = 0; w < words_.size(); ++w) {
      for (uint64_t m = words_[w]; m != 0; m &= m - 1) {
        f(w * 64 + std::countr_zero(m));
      }
    }
  }

  /// Calls f(i) for every set bit i, ascending, and clears the bits: the
  /// mask is all clear on return. f must not mark bits of this mask.
  template <typename F>
  void Drain(F&& f) {
    for (size_t w = 0; w < words_.size(); ++w) {
      uint64_t m = words_[w];
      if (m == 0) continue;
      words_[w] = 0;
      do {
        f(w * 64 + std::countr_zero(m));
        m &= m - 1;
      } while (m != 0);
    }
  }

 private:
  std::vector<uint64_t> words_;
};

}  // namespace simpush

#endif  // SIMPUSH_COMMON_TOUCHED_BITS_H_
