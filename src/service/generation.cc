#include "service/generation.h"

#include <utility>

namespace vodak {
namespace service {

namespace {

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

GenerationScheduler::GenerationScheduler(engine::Database* db, size_t lanes)
    : db_(db), lanes_(exec::ResolveThreads(lanes)) {}

GenerationScheduler::~GenerationScheduler() { Stop(); }

void GenerationScheduler::Start() {
  {
    MutexLock lock(mu_);
    if (started_) return;
    started_ = true;
  }
  executor_ = std::thread([this] { ExecutorLoop(); });
}

void GenerationScheduler::Stop() {
  std::deque<ServiceQuery> orphans;
  bool join = false;
  {
    MutexLock lock(mu_);
    if (!started_ || stopping_) {
      // Not started or a concurrent Stop already owns the join.
      join = false;
    } else {
      stopping_ = true;
      join = true;
      orphans.swap(forming_);
    }
    admit_cv_.notify_all();
  }
  // Forming members never reached a drain; reject them outside the
  // lock. The in-flight generation (if any) drains naturally — its
  // workers pop the remaining queue and the executor exits.
  for (ServiceQuery& q : orphans) {
    QueryReply reply;
    reply.request_id = q.request_id;
    reply.status = Status::Cancelled("service stopping");
    reply.stats.plan_ms = q.plan_ms;
    reply.stats.queue_ms = MsSince(q.admitted_at);
    {
      MutexLock lock(mu_);
      CountOutcome(reply.status);
    }
    if (q.done) q.done(std::move(reply));
  }
  if (join && executor_.joinable()) executor_.join();
}

void GenerationScheduler::Admit(ServiceQuery query) {
  // Reject dead-on-arrival queries before they can touch a generation.
  const Status alive =
      exec::CheckQueryAlive(query.cancel.get(), query.deadline);
  Status reject = alive;
  bool admitted = false;
  {
    MutexLock lock(mu_);
    if (!started_ || stopping_) {
      reject = Status::Cancelled("service stopping");
    } else if (alive.ok()) {
      admitted = true;
      totals_.queries_admitted++;
      forming_.push_back(std::move(query));
      admit_cv_.notify_one();
    } else {
      CountOutcome(reject);
    }
  }
  if (admitted) return;
  QueryReply reply;
  reply.request_id = query.request_id;
  reply.status = std::move(reject);
  reply.stats.plan_ms = query.plan_ms;
  reply.stats.queue_ms = MsSince(query.admitted_at);
  if (query.done) query.done(std::move(reply));
}

void GenerationScheduler::ExecutorLoop() {
  // One pool for the scheduler's lifetime; ParallelRun runs lanes_
  // worker tasks with this thread participating.
  exec::WorkerPool* pool = db_->EnsurePool(lanes_);
  for (;;) {
    {
      UniqueLock lock(mu_);
      while (!FormingReadyOrStopping()) admit_cv_.wait(lock);
      if (forming_.empty()) break;  // stopping_ with nothing left
      // Promote forming → draining.
      queue_.swap(forming_);
    }
    const uint64_t generation = db_->NextGenerationId();
    // The generation's epoch pin lives exactly as long as its drain:
    // every member reads the snapshot current when the generation
    // formed, no matter what commits while it drains.
    EpochPin pin(db_->store());
    exec::ExecContext ctx;
    ctx.catalog = db_->catalog();
    ctx.store = db_->store();
    ctx.methods = db_->methods();
    ctx.snapshot_epoch = pin.epoch();
    ctx.segments = db_->segment_store();
    const StoreStats& store_stats = db_->store()->stats();
    const uint64_t scans_before =
        store_stats.extent_scans.load(std::memory_order_relaxed);
    const uint64_t reads_before =
        store_stats.property_reads.load(std::memory_order_relaxed);
    pool->ParallelRun(lanes_, [this, &ctx, generation](size_t) {
      GenerationWorker(ctx, generation);
    });
    {
      MutexLock lock(mu_);
      totals_.generations++;
      totals_.extent_passes +=
          store_stats.extent_scans.load(std::memory_order_relaxed) -
          scans_before;
      totals_.property_reads +=  // lint: not-atomic
          store_stats.property_reads.load(std::memory_order_relaxed) -
          reads_before;
    }
  }
}

void GenerationScheduler::GenerationWorker(const exec::ExecContext& ctx,
                                           uint64_t generation) {
  // Members drain exactly like a Submit batch member.
  for (;;) {
    ServiceQuery query;
    {
      MutexLock lock(mu_);
      if (queue_.empty()) return;
      query = std::move(queue_.front());
      queue_.pop_front();
    }
    QueryReply reply;
    reply.request_id = query.request_id;
    reply.stats.plan_ms = query.plan_ms;
    reply.stats.queue_ms = MsSince(query.admitted_at);
    reply.stats.generation_id = generation;
    reply.stats.snapshot_epoch = ctx.snapshot_epoch;
    exec::ExecContext member_ctx = ctx;
    member_ctx.cancel = query.cancel.get();
    member_ctx.deadline = query.deadline;
    reply.status = db_->DrainRead(query.plan, query.result_ref, member_ctx,
                                  &reply.result, &reply.stats);
    {
      MutexLock lock(mu_);
      CountOutcome(reply.status);
    }
    if (query.done) query.done(std::move(reply));
  }
}

void GenerationScheduler::CountOutcome(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
      totals_.queries_ok++;
      break;
    case StatusCode::kCancelled:
      totals_.queries_cancelled++;
      break;
    case StatusCode::kDeadlineExceeded:
      totals_.queries_expired++;
      break;
    default:
      totals_.queries_failed++;
      break;
  }
}

ServiceStats GenerationScheduler::stats() const {
  MutexLock lock(mu_);
  return totals_;
}

}  // namespace service
}  // namespace vodak
