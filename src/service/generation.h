// Generation scheduler: the admission-control core of the query
// service, socket-free so tests can drive it directly
// (docs/ARCHITECTURE.md §"Query service & admission control").
//
// Arrivals are grouped into *generations*. One generation drains at a
// time on the session WorkerPool: one epoch pin, and its members spread
// over the lanes, each through Database::DrainRead on private scan
// leaves. Arrivals during a drain queue in the forming generation that
// starts the moment the drain ends.
//
// Locking discipline follows the PR 6 contracts: all shared state is
// GUARDED_BY(mu_), cv wait predicates are extracted REQUIRES(mu_)
// members, and reply callbacks always fire outside the lock.
#ifndef VODAK_SERVICE_GENERATION_H_
#define VODAK_SERVICE_GENERATION_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>

#include "common/thread_annotations.h"
#include "engine/database.h"
#include "service/protocol.h"

namespace vodak {
namespace service {

/// What a query's completion callback receives.
struct QueryReply {
  std::string request_id;
  Status status;
  Value result;
  engine::QueryStats stats;
};

/// A planned query handed to the scheduler. Planning happened on the
/// caller's thread (the service's event loop) — the scheduler only
/// executes.
struct ServiceQuery {
  /// Client-chosen id, echoed in the reply.
  std::string request_id;
  algebra::LogicalRef plan;
  std::string result_ref;
  /// Owned here so a cancel arriving after the reply is a harmless
  /// trip of a token nobody reads anymore.
  std::shared_ptr<exec::CancellationToken> cancel;
  exec::Deadline deadline;
  double plan_ms = 0.0;
  std::chrono::steady_clock::time_point admitted_at;
  /// Fired exactly once with the query's outcome, never under mu_.
  std::function<void(QueryReply)> done;
};

/// The generation state machine. Thread-compatible construction, then
/// Start() spawns the executor thread and Admit() is safe from any
/// thread. Stop() rejects the forming generation, lets the in-flight
/// one drain, and joins.
class GenerationScheduler {
 public:
  /// `lanes`: worker lanes per generation drain; 0 = hardware
  /// concurrency.
  explicit GenerationScheduler(engine::Database* db, size_t lanes = 0);
  GenerationScheduler(const GenerationScheduler&) = delete;
  GenerationScheduler& operator=(const GenerationScheduler&) = delete;
  ~GenerationScheduler();

  void Start() EXCLUDES(mu_);
  void Stop() EXCLUDES(mu_);

  /// Admits one planned query. Already-cancelled or already-expired
  /// queries are rejected here with their terminal status; their
  /// `done` fires before Admit returns, outside the lock. Otherwise
  /// the query joins the forming generation.
  void Admit(ServiceQuery query) EXCLUDES(mu_);

  ServiceStats stats() const EXCLUDES(mu_);

 private:
  /// Promotes forming → draining and runs the drain on the pool.
  void ExecutorLoop() EXCLUDES(mu_);
  /// One lane of a drain: pops members until the generation's queue is
  /// empty and drains each through Database::DrainRead under `ctx` —
  /// the generation's snapshot and segment store.
  void GenerationWorker(const exec::ExecContext& ctx, uint64_t generation)
      EXCLUDES(mu_);

  /// Executor wake predicate: a generation is forming or we're done.
  bool FormingReadyOrStopping() const REQUIRES(mu_) {
    return stopping_ || !forming_.empty();
  }
  /// Buckets a terminal status into the ok/cancelled/expired/failed
  /// counters.
  void CountOutcome(const Status& status) REQUIRES(mu_);

  engine::Database* const db_;
  const size_t lanes_;

  std::thread executor_;

  mutable Mutex mu_;
  /// Executor parks here for the next forming generation.
  std::condition_variable_any admit_cv_;
  bool started_ GUARDED_BY(mu_) = false;
  bool stopping_ GUARDED_BY(mu_) = false;
  /// The forming generation: members waiting for the next drain.
  std::deque<ServiceQuery> forming_ GUARDED_BY(mu_);

  /// Members of the draining generation not yet picked up by a lane.
  /// One generation drains at a time, so this lives flat on the
  /// scheduler where the analysis can see its guard.
  std::deque<ServiceQuery> queue_ GUARDED_BY(mu_);
  ServiceStats totals_ GUARDED_BY(mu_);
};

}  // namespace service
}  // namespace vodak

#endif  // VODAK_SERVICE_GENERATION_H_
