// Fixed worker pool behind Submit's batch lanes and the query service's
// generations. Locking
// discipline is a compile-time contract: every shared field is
// GUARDED_BY its mutex and the clang CI legs build with
// -Werror=thread-safety (docs/ARCHITECTURE.md §"Static analysis &
// concurrency contracts").
#ifndef VODAK_EXEC_WORKER_POOL_H_
#define VODAK_EXEC_WORKER_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"

namespace vodak {
namespace exec {

/// 0 → hardware concurrency (itself guarded: a libc that reports 0
/// resolves to 1), otherwise `threads` itself. This is the single
/// resolution point for every thread-count knob — the engine's
/// SubmitOptions, the query service's lanes and the WorkerPool
/// constructor all route through it, so no call site
/// carries its own hardware_concurrency guard.
inline size_t ResolveThreads(size_t threads) {
  if (threads != 0) return threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

/// A small fixed pool of worker threads.
///
/// The pool provides one primitive, ParallelRun(n, task): run task(i)
/// for every i in [0, n), with the calling thread participating
/// alongside the pooled threads, and return once all n tasks finished.
/// Tasks are claimed from a shared counter, so n may exceed the pool
/// size (excess tasks run as threads free up) and a pool of parallelism
/// 1 degenerates to a plain serial loop on the caller.
///
/// The pool is reusable across queries; threads park on a condition
/// variable between runs. ParallelRun is serialized internally, so
/// concurrent callers are safe but do not overlap their work.
class WorkerPool {
 public:
  /// Creates a pool with `parallelism` total lanes: the caller of
  /// ParallelRun plus (parallelism - 1) background threads. The count
  /// goes through ResolveThreads, so 0 means hardware concurrency here
  /// too rather than a degenerate single-lane pool.
  explicit WorkerPool(size_t parallelism);
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;
  ~WorkerPool();

  /// Total parallel lanes (background threads + the calling thread).
  size_t parallelism() const { return threads_.size() + 1; }

  /// Runs task(0) .. task(n-1) to completion across the pool and the
  /// calling thread. Tasks must not call ParallelRun on the same pool.
  void ParallelRun(size_t n, const std::function<void(size_t)>& task)
      EXCLUDES(mu_, run_mu_);

 private:
  void WorkerLoop() EXCLUDES(mu_);
  /// Claims and runs tasks of the current job until none remain.
  void RunClaimedTasks() EXCLUDES(mu_);
  /// The park/wake predicate; reads the job state, so the caller (the
  /// wait loop) must hold mu_.
  bool HasClaimableTaskOrStop() const REQUIRES(mu_) {
    return stop_ || (job_ != nullptr && next_task_ < total_tasks_);
  }

  /// Immutable after the constructor returns (joined in ~WorkerPool).
  std::vector<std::thread> threads_;

  /// Guards the per-job dispatch state below. Acquired by every lane
  /// only for claim/complete bookkeeping — never held across task().
  Mutex mu_;
  std::condition_variable_any work_cv_;
  std::condition_variable_any done_cv_;
  /// Serializes whole ParallelRun calls; guards no fields (the job
  /// state belongs to mu_) but makes overlapping runs impossible.
  Mutex run_mu_ ACQUIRED_BEFORE(mu_);  // lint: no-guarded-fields(serializes ParallelRun; protects a phase, not fields)
  const std::function<void(size_t)>* job_ GUARDED_BY(mu_) = nullptr;
  size_t next_task_ GUARDED_BY(mu_) = 0;
  size_t total_tasks_ GUARDED_BY(mu_) = 0;
  size_t done_tasks_ GUARDED_BY(mu_) = 0;
  bool stop_ GUARDED_BY(mu_) = false;
};

}  // namespace exec
}  // namespace vodak

#endif  // VODAK_EXEC_WORKER_POOL_H_
