#include "simpush/workspace_pool.h"

#include <algorithm>
#include <chrono>

#include "common/failpoint.h"

namespace simpush {

WorkspaceLease& WorkspaceLease::operator=(WorkspaceLease&& other) noexcept {
  if (this != &other) {
    Release();
    pool_ = std::exchange(other.pool_, nullptr);
    workspace_ = std::exchange(other.workspace_, nullptr);
  }
  return *this;
}

void WorkspaceLease::Release() {
  if (pool_ != nullptr && workspace_ != nullptr) {
    pool_->Return(workspace_);
  }
  pool_ = nullptr;
  workspace_ = nullptr;
}

WorkspacePool::WorkspacePool(size_t capacity)
    : capacity_(std::max<size_t>(1, capacity)) {
  all_.reserve(capacity_);
  idle_.reserve(capacity_);
}

QueryWorkspace* WorkspacePool::TakeLocked() {
  if (!idle_.empty()) {
    QueryWorkspace* workspace = idle_.back();
    idle_.pop_back();
    ++outstanding_;
    return workspace;
  }
  if (all_.size() < capacity_) {
    // Chaos hook: "workspace_pool.alloc" in alloc_fail mode makes the
    // lazy workspace creation behave as exhausted memory — the pool
    // then acts fully checked out, exercising the wait/cancel path.
    static Failpoint* alloc_fp =
        FailpointRegistry::Get().Register("workspace_pool.alloc");
    if (alloc_fp->active()) {
      (void)alloc_fp->Fire();
      if (alloc_fp->mode() == Failpoint::Mode::kAllocFail) return nullptr;
    }
    all_.push_back(std::make_unique<QueryWorkspace>());
    ++outstanding_;
    return all_.back().get();
  }
  return nullptr;
}

WorkspaceLease WorkspacePool::Acquire(const CancelToken* cancel) {
  // Chaos hook: "workspace_pool.acquire" in sleep mode stretches the
  // checkout window so tests can catch a request mid-acquire (e.g. to
  // disconnect the client while it waits). Fired before the lock so a
  // sleeping failpoint cannot serialize the whole pool.
  static Failpoint* acquire_fp =
      FailpointRegistry::Get().Register("workspace_pool.acquire");
  if (acquire_fp->active()) (void)acquire_fp->Fire();

  MutexLock lock(&mu_);
  QueryWorkspace* workspace = TakeLocked();
  while (workspace == nullptr) {
    if (cancel == nullptr) {
      workspace_returned_.Wait(mu_);
    } else {
      if (cancel->ShouldStop()) return WorkspaceLease();
      // Bounded wait: a token with no waker (pure deadline) still gets
      // polled a few hundred times per second.
      (void)workspace_returned_.WaitFor(mu_, std::chrono::milliseconds(5));
    }
    workspace = TakeLocked();
  }
  return WorkspaceLease(this, workspace);
}

void WorkspacePool::Return(QueryWorkspace* workspace) {
  {
    MutexLock lock(&mu_);
    idle_.push_back(workspace);
    --outstanding_;
  }
  workspace_returned_.NotifyOne();
}

size_t WorkspacePool::outstanding() const {
  MutexLock lock(&mu_);
  return outstanding_;
}

size_t WorkspacePool::created() const {
  MutexLock lock(&mu_);
  return all_.size();
}

}  // namespace simpush
