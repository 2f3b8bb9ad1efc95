// WorkspacePool: a bounded checkout/return pool of QueryWorkspaces.
//
// One QueryWorkspace holds all mutable per-query scratch (O(n) dense
// arrays at their high-water marks), so the pool — not the worker or
// request count — bounds peak query-scratch memory: at most `capacity`
// workspaces ever exist, and a request stream of any width shares them.
// Workspaces keep their grown buffers between leases, so a warm pool
// serves queries with zero steady-state heap allocations no matter
// which workspace a query lands on.
//
// Thread-safety contract: Acquire/Return and the counters
// are safe to call from any thread. The QueryWorkspace handed out by a
// lease is exclusively owned by the holder until the lease is released
// — the pool never touches a leased workspace. The pool must outlive
// every lease drawn from it.

#ifndef SIMPUSH_SIMPUSH_WORKSPACE_POOL_H_
#define SIMPUSH_SIMPUSH_WORKSPACE_POOL_H_

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "common/annotations.h"
#include "common/deadline.h"
#include "simpush/workspace.h"

namespace simpush {

class WorkspacePool;

/// Move-only RAII handle to a checked-out QueryWorkspace. Returns the
/// workspace to its pool on destruction (or explicit Release()).
class WorkspaceLease {
 public:
  /// An empty lease (no workspace); usable as a "not holding" state.
  WorkspaceLease() = default;
  /// Transfers ownership; `other` becomes empty.
  WorkspaceLease(WorkspaceLease&& other) noexcept
      : pool_(std::exchange(other.pool_, nullptr)),
        workspace_(std::exchange(other.workspace_, nullptr)) {}
  /// Releases any held workspace, then takes over `other`'s.
  WorkspaceLease& operator=(WorkspaceLease&& other) noexcept;
  WorkspaceLease(const WorkspaceLease&) = delete;
  WorkspaceLease& operator=(const WorkspaceLease&) = delete;
  /// Returns the workspace to its pool.
  ~WorkspaceLease() { Release(); }

  /// The leased workspace; nullptr for an empty lease.
  QueryWorkspace* get() const { return workspace_; }
  /// Member access on the leased workspace; precondition: non-empty.
  QueryWorkspace* operator->() const { return workspace_; }
  /// True when the lease holds a workspace.
  explicit operator bool() const { return workspace_ != nullptr; }

  /// Returns the workspace to the pool early; the lease becomes empty.
  void Release();

 private:
  friend class WorkspacePool;
  WorkspaceLease(WorkspacePool* pool, QueryWorkspace* workspace)
      : pool_(pool), workspace_(workspace) {}

  WorkspacePool* pool_ = nullptr;
  QueryWorkspace* workspace_ = nullptr;
};

/// Bounded pool of lazily-created QueryWorkspaces.
class WorkspacePool {
 public:
  /// At most `capacity` (min 1) workspaces ever exist, each created on
  /// first demand: an over-provisioned pool costs nothing until used.
  explicit WorkspacePool(size_t capacity);

  /// Checks out a workspace, blocking while `capacity` leases are
  /// already outstanding. With a non-null `cancel` the wait wakes
  /// periodically to poll it, and a fired token returns an EMPTY lease
  /// instead of a workspace (a request whose deadline expired in the
  /// queue must not tie up scratch memory).
  WorkspaceLease Acquire(const CancelToken* cancel = nullptr);

  /// Maximum number of simultaneously leased workspaces.
  size_t capacity() const { return capacity_; }

  /// Leases currently held (leak check: 0 when all work has drained).
  size_t outstanding() const;

  /// Workspaces materialized so far (<= capacity; peak-memory gauge).
  size_t created() const;

 private:
  friend class WorkspaceLease;
  void Return(QueryWorkspace* workspace) SIMPUSH_EXCLUDES(mu_);
  // Pops an idle workspace or creates one; nullptr when the pool is
  // exhausted. The REQUIRES annotation is the machine-checked form of
  // the "-Locked" naming convention: callers must hold mu_.
  QueryWorkspace* TakeLocked() SIMPUSH_REQUIRES(mu_);

  const size_t capacity_;
  mutable Mutex mu_;
  CondVar workspace_returned_;
  // Stable storage.
  std::vector<std::unique_ptr<QueryWorkspace>> all_ SIMPUSH_GUARDED_BY(mu_);
  std::vector<QueryWorkspace*> idle_ SIMPUSH_GUARDED_BY(mu_);
  size_t outstanding_ SIMPUSH_GUARDED_BY(mu_) = 0;
};

}  // namespace simpush

#endif  // SIMPUSH_SIMPUSH_WORKSPACE_POOL_H_
