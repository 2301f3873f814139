#include "service/generation.h"

#include <algorithm>
#include <utility>

#include "exec/physical.h"
#include "exec/shared_scan.h"

namespace vodak {
namespace service {

namespace {

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

void CollectScanKeys(const algebra::LogicalRef& node, const Catalog* catalog,
                     std::vector<std::string>* keys) {
  if (node == nullptr) return;
  if (node->op() == algebra::LogicalOp::kGet) {
    const ClassDef* cls = catalog->FindClass(node->class_name());
    if (cls != nullptr) {
      keys->push_back(exec::SharedScanManager::ExtentKey(cls->class_id()));
    }
  } else if (node->op() == algebra::LogicalOp::kExprSource &&
             node->expr() != nullptr) {
    keys->push_back(exec::SharedScanManager::ExprKey(node->expr()->ToString()));
  }
  for (const algebra::LogicalRef& input : node->inputs()) {
    CollectScanKeys(input, catalog, keys);
  }
}

}  // namespace

std::vector<std::string> PlanScanSourceKeys(const algebra::LogicalRef& plan,
                                            const Catalog* catalog) {
  std::vector<std::string> keys;
  CollectScanKeys(plan, catalog, &keys);
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

GenerationScheduler::GenerationScheduler(engine::Database* db,
                                         SchedulerOptions options)
    : db_(db),
      options_(options),
      lanes_(exec::ResolveThreads(options.lanes)) {}

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
    member_cv_.notify_all();
  }
  // Forming members never reached a drain; reject them outside the
  // lock. The in-flight generation (if any) drains naturally — its
  // workers pop the remaining queue, seal, and the executor exits.
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
  // Reject dead-on-arrival queries before they can touch a generation:
  // a cancelled or already-expired query must never attach to a shared
  // scan (it would claim ring morsels it then abandons).
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
      if (!sealed_ && AttachLateProfitable(query)) {
        query.attached_late = true;
        totals_.late_attached++;
        // The attacher's sources join the in-flight set so a
        // same-shape follow-up can piggyback on its pass too.
        draining_keys_.insert(query.scan_keys.begin(),
                              query.scan_keys.end());
        queue_.push_back(std::move(query));
        member_cv_.notify_one();
      } else {
        forming_.push_back(std::move(query));
        admit_cv_.notify_one();
      }
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

bool GenerationScheduler::AttachLateProfitable(
    const ServiceQuery& query) const {
  if (!options_.shared_scan) return false;
  // Profitable: at least one of the member's scan sources is already
  // in flight, so attaching turns a whole private extent pass (rows ×
  // mark cost + batch overheads, in cost-model units) into a circle of
  // the existing ring at zero extra scan work.
  bool overlap = false;
  for (const std::string& key : query.scan_keys) {
    if (draining_keys_.count(key) != 0) {
      overlap = true;
      break;
    }
  }
  if (!overlap) return false;
  // Affordable: circling back for missed morsels costs up to about one
  // drain; require the deadline to hold attach_slack of the estimate.
  if (query.deadline.armed &&
      query.deadline.remaining_ms() <
          options_.attach_slack * est_drain_ms_) {
    return false;
  }
  return true;
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
      draining_keys_.clear();
      for (const ServiceQuery& q : queue_) {
        draining_keys_.insert(q.scan_keys.begin(), q.scan_keys.end());
      }
      in_flight_ = 0;
      sealed_ = false;
    }
    const uint64_t generation = db_->NextGenerationId();
    const auto drain_start = std::chrono::steady_clock::now();
    // The generation's shared scans and property cache live exactly as
    // long as its drain — and so does its epoch pin: every member
    // (including late attachers) reads the snapshot current when the
    // generation formed, no matter what commits while it drains.
    EpochPin pin(db_->store());
    exec::SharedScanManager manager(db_->store(), options_.morsel_size,
                                    pin.epoch(), db_->segment_store());
    const StoreStats& store_stats = db_->store()->stats();
    const uint64_t scans_before =
        store_stats.extent_scans.load(std::memory_order_relaxed);
    const uint64_t reads_before =
        store_stats.property_reads.load(std::memory_order_relaxed);
    pool->ParallelRun(lanes_, [this, &manager, generation](size_t) {
      GenerationWorker(&manager, generation);
    });
    const double observed = MsSince(drain_start);
    {
      MutexLock lock(mu_);
      totals_.generations++;
      totals_.extent_passes +=
          store_stats.extent_scans.load(std::memory_order_relaxed) -
          scans_before;
      totals_.property_reads +=  // lint: not-atomic
          store_stats.property_reads.load(std::memory_order_relaxed) -
          reads_before;
      draining_keys_.clear();
      sealed_ = true;
      // EWMA keeps the affordability estimate tracking the workload
      // without one outlier generation swinging it.
      est_drain_ms_ = 0.7 * est_drain_ms_ + 0.3 * observed;
    }
  }
}

void GenerationScheduler::GenerationWorker(exec::SharedScanManager* manager,
                                           uint64_t generation) {
  for (;;) {
    ServiceQuery query;
    {
      UniqueLock lock(mu_);
      while (!DrainHasWorkOrSealed()) member_cv_.wait(lock);
      if (queue_.empty()) return;  // sealed, drain out
      query = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }
    QueryReply reply = ExecuteMember(query, manager, generation);
    {
      MutexLock lock(mu_);
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) {
        // Last member out seals the generation: no more late attach,
        // sibling lanes parked on member_cv_ drain out.
        sealed_ = true;
        member_cv_.notify_all();
      }
      CountOutcome(reply.status);
    }
    if (query.done) query.done(std::move(reply));
  }
}

QueryReply GenerationScheduler::ExecuteMember(
    ServiceQuery& query, exec::SharedScanManager* manager,
    uint64_t generation) {
  QueryReply reply;
  reply.request_id = query.request_id;
  reply.stats.plan_ms = query.plan_ms;
  reply.stats.queue_ms = MsSince(query.admitted_at);
  reply.stats.generation_id = generation;
  reply.stats.attached_late = query.attached_late;
  reply.stats.snapshot_epoch = manager->snapshot();
  const auto drain_start = std::chrono::steady_clock::now();
  reply.status = [&]() -> Status {
    // A member cancelled or expired while waiting in the generation
    // queue never opens — it must not attach and claim ring morsels it
    // would abandon; its generation siblings drain on unaffected.
    VODAK_RETURN_IF_ERROR(
        exec::CheckQueryAlive(query.cancel.get(), query.deadline));
    exec::ExecContext ctx;
    ctx.catalog = db_->catalog();
    ctx.store = db_->store();
    ctx.methods = db_->methods();
    if (options_.shared_scan) {
      ctx.shared_scans = manager;
      ctx.property_cache = manager->property_cache();
    }
    ctx.cancel = query.cancel.get();
    ctx.deadline = query.deadline;
    ctx.snapshot_epoch = manager->snapshot();
    ctx.segments = db_->segment_store();
    VODAK_ASSIGN_OR_RETURN(exec::PhysOpPtr root,
                           exec::BuildPhysical(query.plan, ctx));
    VODAK_ASSIGN_OR_RETURN(reply.result,
                           exec::ExecuteColumn(root.get(), query.result_ref));
    return Status::OK();
  }();
  reply.stats.drain_ms = MsSince(drain_start);
  return reply;
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
