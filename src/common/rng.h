// Deterministic, fast pseudo-random number generation.
//
// All randomness in the library flows through Rng instances seeded
// explicitly; there is no global RNG state, so every experiment is
// reproducible from its seed.

#ifndef SIMPUSH_COMMON_RNG_H_
#define SIMPUSH_COMMON_RNG_H_

#include <cstdint>

namespace simpush {

/// Mixes a 64-bit seed into a well-distributed state word (splitmix64).
/// Inline, like the stream derivations below: a level-detection query
/// seeds tens of thousands of walk streams.
inline uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Derives a per-stream seed from a base seed and a stream id (query
/// node, source node, …). Every consumer of per-query randomness uses
/// this one mapping, so a query's RNG stream depends only on
/// (base seed, stream id) — never on which engine, worker thread, or
/// position in a batch executed it. That invariant is what makes batch
/// results bit-identical across thread counts and engine reuse.
inline uint64_t DeriveStreamSeed(uint64_t base_seed, uint64_t stream_id) {
  uint64_t state = base_seed ^ (0xBF58476D1CE4E5B9ULL * (stream_id + 1));
  return SplitMix64(&state);
}

/// Mixes a (stream key, counter) pair into a stream seed. This is the
/// counter-based primitive behind Rng::ForWalk: the mapping is
/// stateless, so any execution order — serial, a lockstep wave, a SIMD
/// lane, another thread — derives the identical stream for the same
/// counter. Distinct from DeriveStreamSeed only in mixing constants, so
/// walk streams can never collide with query streams derived from the
/// same base seed.
inline uint64_t CounterStreamSeed(uint64_t key, uint64_t counter) {
  uint64_t state = key + 0x94D049BB133111EBULL * (counter + 1);
  return SplitMix64(&state);
}

/// xoshiro256++ generator: small state, excellent statistical quality,
/// much faster than std::mt19937_64 for the walk-heavy workloads here.
class Rng {
 public:
  /// Seeds the four state words via splitmix64 from a single seed.
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL) {
    uint64_t sm = seed;
    for (auto& word : s_) word = SplitMix64(&sm);
  }

  /// Counter-based per-walk stream pinned to (seed, node, walk_index):
  /// the walk-index is a pure counter, so batched, serial, and
  /// any-thread-count execution consume bit-identical randomness by
  /// construction — walk order is a free variable for the batched
  /// kernel (and future SIMD/GPU backends). See walk/walk_batch.h for
  /// the determinism contract this anchors.
  static Rng ForWalk(uint64_t seed, uint64_t node, uint64_t walk_index) {
    return Rng(CounterStreamSeed(DeriveStreamSeed(seed, node), walk_index));
  }

  // Next, NextDouble and NextBounded are defined here so that the walk
  // loops, which draw once per step, inline them.

  /// Uniform 64-bit value.
  uint64_t Next() {
    const uint64_t result = Rotl(s_[0] + s_[3], 23) + s_[0];
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double NextDouble() {
    // 53 high bits -> [0,1) with full double precision.
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, bound) using Lemire's multiply-shift rejection.
  /// Precondition: bound > 0.
  uint64_t NextBounded(uint64_t bound) {
    uint64_t x = Next();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    uint64_t low = static_cast<uint64_t>(m);
    if (low < bound) {
      const uint64_t threshold = -bound % bound;
      while (low < threshold) {
        x = Next();
        m = static_cast<__uint128_t>(x) * bound;
        low = static_cast<uint64_t>(m);
      }
    }
    return static_cast<uint64_t>(m >> 64);
  }

  /// Bernoulli trial with success probability p.
  bool NextBernoulli(double p) { return NextDouble() < p; }

  /// Derives an independent stream (for per-query / per-thread use).
  Rng Fork();

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
  uint64_t s_[4];
};

}  // namespace simpush

#endif  // SIMPUSH_COMMON_RNG_H_
