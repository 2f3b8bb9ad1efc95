// Memory accounting: process peak and current RSS (the paper measures
// rusage.ru_maxrss) and the heap-allocation counters behind the
// zero-allocation checks.

#ifndef SIMPUSH_COMMON_MEMORY_H_
#define SIMPUSH_COMMON_MEMORY_H_

#include <cstddef>
#include <cstdint>

namespace simpush {

/// Peak resident set size of the calling process, in bytes.
/// Mirrors the paper's measurement of rusage.ru_maxrss (§5.1).
size_t PeakRssBytes();

/// Current resident set size of the calling process, in bytes
/// (read from /proc/self/statm; returns 0 if unavailable).
size_t CurrentRssBytes();

/// Pretty-prints a byte count, e.g. "1.50 GB".
const char* HumanBytesUnit(double* value);

/// Snapshot of the process-wide heap-allocation counters. The counters
/// only advance in binaries that link the `simpush_alloc_hook` target
/// (which installs counting operator new/delete); everywhere else they
/// stay zero. Used by bench_micro and the workspace tests to verify the
/// query hot path performs zero allocations in steady state.
struct AllocationStats {
  uint64_t allocations = 0;    ///< Calls to operator new (any form).
  uint64_t deallocations = 0;  ///< Calls to operator delete (any form).
  uint64_t bytes_allocated = 0;
};

/// Reads the current counter values (atomic, thread-safe).
AllocationStats GetAllocationStats();

namespace internal {
/// Called by the operator new/delete overrides in alloc_hook.cc.
void RecordAllocation(size_t bytes);
void RecordDeallocation();
}  // namespace internal

}  // namespace simpush

#endif  // SIMPUSH_COMMON_MEMORY_H_
