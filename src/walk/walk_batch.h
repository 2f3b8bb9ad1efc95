// Batched structure-of-arrays √c-walk kernel.
//
// The serial walk loop (Walker::SampleWalkVisit) advances one walk at a
// time through dependent in-CSR loads: every step is a pointer chase,
// so the CPU eats one full cache miss per step with zero memory-level
// parallelism. This kernel instead runs a *wave* of W walks in lockstep
// over SoA state (current[], remaining[], a live count with swap-to-back
// retirement) and splits each step into three passes:
//
//   1. prefetch the offset-row entries of all W current nodes,
//   2. pick each walk's next in-edge (degree read + one uniform draw)
//      and prefetch the in-CSR entry it lands on,
//   3. advance every walk to its picked neighbor, fire the visit
//      callback, and retire finished walks by swapping them behind the
//      live prefix.
//
// By the time pass 2 reads a degree (and pass 3 a neighbor), the loads
// of the other W-1 walks are already in flight — misses overlap instead
// of serializing, which is where the speedup comes from.
//
// Determinism contract: lockstep interleaving reorders RNG consumption
// across walks, so the kernel never shares an RNG between walks.
// Each walk i draws from its own counter-based stream
// Rng::ForWalk(walk_seed, start, i) — a pure function of
// (seed, node, walk_index) — and consumes a fixed draw schedule (one
// length draw, then one bounded draw per step). Walk
// order is therefore a free variable: serial execution, any wave size,
// any thread count, or a future SIMD/GPU backend produce bit-identical
// trajectories by construction. tests/walk_test.cc
// (KernelMatchesSerialWalkerPerStream, across wave widths) and
// tests/determinism_test.cc (BatchedEqualsSerialBitIdentical, across
// thread counts) hold this bar.
//
// Cancellation contract: the token is polled between waves at the
// kCancelCheckStride walk cadence, never inside a wave and never in a
// way that touches an RNG, so an unfired token leaves results
// bit-identical (same contract as the serial loops; common/deadline.h).
//
// All kernel state lives on the stack (kMaxWalkWaveSize-sized arrays),
// preserving the engine's zero-steady-state-allocation invariant.

#ifndef SIMPUSH_WALK_WALK_BATCH_H_
#define SIMPUSH_WALK_WALK_BATCH_H_

#include <algorithm>
#include <cstdint>
#include <string>

#include "common/deadline.h"
#include "common/rng.h"
#include "graph/graph.h"
#include "walk/walker.h"

namespace simpush {

/// Default lockstep wave width: the widest legal wave. Its SoA state
/// (~13 KiB) still fits in L1, and a wider wave has more misses in
/// flight. Level detection after a web-graph query measured
/// 2.10 / 1.72 / 1.45 / 1.23 ms at W = 32 / 64 / 128 / 256 once its
/// visit callback became an append (simpush/source_push.cc). The
/// BM_WalkKernel/batched and BM_DetectMaxLevel sweeps in bench_micro
/// re-measure the choice.
constexpr uint32_t kDefaultWalkWaveSize = 256;

/// Hard cap on the wave width: kernel state is stack-allocated at this
/// size (~13 KiB), and no wave may outrun the cancellation stride
/// (static_asserts in walk_batch.cc).
constexpr uint32_t kMaxWalkWaveSize = 256;

/// Clamps a requested wave width into [1, kMaxWalkWaveSize].
inline uint32_t ClampWaveSize(uint32_t wave_size) {
  return std::clamp<uint32_t>(wave_size, 1, kMaxWalkWaveSize);
}

/// Runs `num_walks` √c-walks from `start` in lockstep waves, invoking
/// visit(level, node) for every step >= 1 of every walk (level 0 — the
/// start node itself — is not reported), in walk order within each
/// wave pass. Aggregation callbacks must therefore be order-insensitive
/// (level detection is: it appends to per-level lists and counts them
/// only after the last wave; see simpush/source_push.cc).
///
/// `walk_seed` keys the counter-based per-walk streams; walk i draws
/// from Rng::ForWalk(walk_seed, start, i) regardless of wave size.
/// `length_cap` bounds each walk's decay length (pass params.l_star —
/// deeper levels are discarded anyway). `inv_log_sqrt_c` is
/// 1/log(√c), precomputed by the caller (Walker::inv_log_sqrt_c()).
/// Each step picks an in-neighbor uniformly with one bounded draw.
///
/// Returns the number of walks fully completed. This equals num_walks
/// unless the cancel token fired, in which case the kernel stopped at a
/// wave boundary (partial tallies are the caller's to discard — the
/// caller re-checks the token, same as the serial contract).
template <typename Visit>
uint64_t RunWalkWaves(const Graph& graph, NodeId start, uint64_t walk_seed,
                      uint64_t num_walks, uint32_t length_cap,
                      double inv_log_sqrt_c, Visit&& visit,
                      const CancelToken* cancel = nullptr,
                      uint32_t wave_size = kDefaultWalkWaveSize) {
  wave_size = ClampWaveSize(wave_size);
  constexpr EdgeId kNoEdge = static_cast<EdgeId>(-1);

  // SoA wave state, stack-resident: no allocation at any wave size.
  Rng rng[kMaxWalkWaveSize];
  NodeId current[kMaxWalkWaveSize];
  uint32_t remaining[kMaxWalkWaveSize];
  uint32_t level[kMaxWalkWaveSize];
  EdgeId edge[kMaxWalkWaveSize];

  // Rng::ForWalk(walk_seed, start, i) with its (walk_seed, start) key
  // derived once per call instead of once per walk.
  const uint64_t stream_key = DeriveStreamSeed(walk_seed, start);
  uint64_t next_poll = 0;
  for (uint64_t base = 0; base < num_walks; base += wave_size) {
    // Cancellation poll at the same stride as the serial loop. State
    // reads only — an unfired token is invisible to the results.
    if (base >= next_poll) {
      if (ShouldStop(cancel)) return base;
      next_poll = base + kCancelCheckStride;
    }
    const uint32_t wave = static_cast<uint32_t>(
        std::min<uint64_t>(wave_size, num_walks - base));

    // Wave init: pin walk base+j to its counter stream and draw all
    // decay lengths up front (one batched pass of log()s). Walks whose
    // length came up 0 retire before taking a step, exactly as the
    // serial loop's empty inner loop.
    uint32_t alive = 0;
    for (uint32_t j = 0; j < wave; ++j) {
      rng[alive] = Rng(CounterStreamSeed(stream_key, base + j));
      const uint32_t length_j = WalkLengthForUniform(
          rng[alive].NextDouble(), inv_log_sqrt_c, length_cap);
      if (length_j == 0) continue;
      current[alive] = start;
      remaining[alive] = length_j;
      level[alive] = 0;
      ++alive;
    }

    while (alive > 0) {
      // Pass 1: launch the offset-row loads for every live walk.
      for (uint32_t j = 0; j < alive; ++j) {
        graph.PrefetchInOffsets(current[j]);
      }
      // Pass 2: pick each walk's next in-edge and launch its CSR load.
      // Dangling nodes (no in-neighbors) mark the walk for retirement
      // without a draw, matching the serial loop.
      for (uint32_t j = 0; j < alive; ++j) {
        const uint32_t deg = graph.InDegree(current[j]);
        if (deg == 0) {
          edge[j] = kNoEdge;
          continue;
        }
        const uint32_t k = static_cast<uint32_t>(rng[j].NextBounded(deg));
        edge[j] = graph.InRowBegin(current[j]) + k;
        graph.PrefetchInSource(edge[j]);
      }
      // Pass 3: advance, visit, retire. Retirement swaps the last live
      // walk into the freed slot (edge[] included — its pick is still
      // valid) and reprocesses the slot without advancing j.
      uint32_t j = 0;
      while (j < alive) {
        if (edge[j] != kNoEdge) {
          current[j] = graph.InSourceAt(edge[j]);
          visit(++level[j], current[j]);
          if (--remaining[j] > 0) {
            ++j;
            continue;
          }
        }
        --alive;
        rng[j] = rng[alive];
        current[j] = current[alive];
        remaining[j] = remaining[alive];
        level[j] = level[alive];
        edge[j] = edge[alive];
      }
    }
  }
  return num_walks;
}

/// One-line description of the kernel configuration (wave width, stream
/// scheme, prefetch targets) for bench metadata and logs.
std::string WalkKernelConfigString();

}  // namespace simpush

#endif  // SIMPUSH_WALK_WALK_BATCH_H_
