// Shared-scan generation scheduler: the admission-control core of the
// query service, socket-free so tests can drive it directly
// (docs/ARCHITECTURE.md §"Query service & admission control").
//
// Arrivals are grouped into *generations*. One generation drains at a
// time on the session WorkerPool with one SharedScanManager, so its
// members pay ~1 extent pass and ~1 property-column read per source
// instead of one each. While a generation drains, new arrivals either
// attach late — when the admission policy says the in-flight pass is
// still profitable for them and their deadline affords circling the
// morsel ring back — or queue in the forming generation that starts
// the moment the drain seals.
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
#include <set>
#include <string>
#include <thread>
#include <vector>

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
  /// Shared-scan source keys of the plan's scan leaves
  /// (PlanScanSourceKeys); drives the late-attach overlap test.
  std::vector<std::string> scan_keys;
  bool attached_late = false;
  /// Fired exactly once with the query's outcome, never under mu_.
  std::function<void(QueryReply)> done;
};

struct SchedulerOptions {
  /// Worker lanes per generation drain; 0 = hardware concurrency.
  size_t lanes = 0;
  /// False drains every member with private cursors — the baseline
  /// service_test's ClosedLoopClientsShareGenerationsScansAndPlans
  /// compares extent passes against.
  bool shared_scan = true;
};

/// The generation state machine. Thread-compatible construction, then
/// Start() spawns the executor thread and Admit() is safe from any
/// thread. Stop() rejects the forming generation, lets the in-flight
/// one drain, and joins.
class GenerationScheduler {
 public:
  GenerationScheduler(engine::Database* db, SchedulerOptions options = {});
  GenerationScheduler(const GenerationScheduler&) = delete;
  GenerationScheduler& operator=(const GenerationScheduler&) = delete;
  ~GenerationScheduler();

  void Start() EXCLUDES(mu_);
  void Stop() EXCLUDES(mu_);

  /// Admits one planned query. Already-cancelled or already-expired
  /// queries are rejected here — before they could attach to a shared
  /// scan or claim ring morsels — with their terminal status; their
  /// `done` fires before Admit returns, outside the lock. Otherwise
  /// the query late-attaches to the draining generation when
  /// profitable, else joins the forming one.
  void Admit(ServiceQuery query) EXCLUDES(mu_);

  ServiceStats stats() const EXCLUDES(mu_);

 private:
  /// Promotes forming → draining, runs the drain on the pool, seals.
  void ExecutorLoop() EXCLUDES(mu_);
  /// One lane of a drain: pops members until the generation seals and
  /// drains each through Database::DrainRead under `ctx` — the
  /// generation's snapshot, segment store and (shared_scan) manager.
  void GenerationWorker(const exec::ExecContext& ctx, uint64_t generation)
      EXCLUDES(mu_);

  /// The admission policy for arrivals while a generation drains:
  /// profitable (the member's scan leaves overlap sources the drain
  /// already has in flight, so attaching saves whole private passes at
  /// the cost of circling the ring for missed morsels) AND affordable
  /// (the member's deadline leaves at least kAttachSlack × the
  /// drain-time estimate).
  bool AttachLateProfitable(const ServiceQuery& query) const REQUIRES(mu_);

  /// Executor wake predicate: a generation is forming or we're done.
  bool FormingReadyOrStopping() const REQUIRES(mu_) {
    return stopping_ || !forming_.empty();
  }
  /// Worker wake predicate: a member to pop or the generation sealed.
  bool DrainHasWorkOrSealed() const REQUIRES(mu_) {
    return !queue_.empty() || sealed_;
  }
  /// Buckets a terminal status into the ok/cancelled/expired/failed
  /// counters.
  void CountOutcome(const Status& status) REQUIRES(mu_);

  /// Late attach requires deadline slack of at least this multiple of
  /// the drain-time estimate (EWMA over sealed generations).
  static constexpr double kAttachSlack = 2.0;

  engine::Database* const db_;
  const SchedulerOptions options_;
  const size_t lanes_;

  std::thread executor_;

  mutable Mutex mu_;
  /// Executor parks here for the next forming generation.
  std::condition_variable_any admit_cv_;
  /// Drain workers park here for members (late attachers) or the seal.
  std::condition_variable_any member_cv_;
  bool started_ GUARDED_BY(mu_) = false;
  bool stopping_ GUARDED_BY(mu_) = false;
  /// The forming generation: members waiting for the next drain.
  std::deque<ServiceQuery> forming_ GUARDED_BY(mu_);

  // One generation drains at a time, so the draining state lives flat
  // on the scheduler where the analysis can see its guard — there is
  // never a second instance to confuse it with.
  /// Members of the draining generation not yet picked up by a lane.
  std::deque<ServiceQuery> queue_ GUARDED_BY(mu_);
  size_t in_flight_ GUARDED_BY(mu_) = 0;
  /// True between generations (and initially): late attach impossible,
  /// workers drain out. The last finishing lane seals.
  bool sealed_ GUARDED_BY(mu_) = true;
  /// Shared-scan source keys the draining generation has in flight.
  std::set<std::string> draining_keys_ GUARDED_BY(mu_);
  /// EWMA of observed generation drain times, the cost model's
  /// circle-back affordability estimate. Seeded at 1ms: optimistic, so
  /// early arrivals attach and the estimate learns from real drains.
  double est_drain_ms_ GUARDED_BY(mu_) = 1.0;
  ServiceStats totals_ GUARDED_BY(mu_);
};

/// Shared-scan source keys of a plan's scan leaves: ExtentKey(class_id)
/// for every kGet (classes unknown to `catalog` are skipped — binding
/// would have failed anyway), ExprKey(expr) for every kExprSource.
/// Sorted and deduplicated.
std::vector<std::string> PlanScanSourceKeys(const algebra::LogicalRef& plan,
                                            const Catalog* catalog);

}  // namespace service
}  // namespace vodak

#endif  // VODAK_SERVICE_GENERATION_H_
