#include "exec/parallel.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <unordered_set>
#include <utility>

#include "exec/row_hash.h"

namespace vodak {
namespace exec {

namespace {

/// Output reference order of the physical root built for `plan`: a
/// project root keeps its projection list (sorted by construction in
/// AlgebraContext::Project), everything else the sorted schema order.
/// Must match how BuildPhysical lays out root columns.
std::vector<std::string> SchemaRefs(const algebra::LogicalRef& plan) {
  if (plan->op() == algebra::LogicalOp::kProject) {
    return plan->projection();
  }
  std::vector<std::string> refs;
  refs.reserve(plan->schema().size());
  for (const auto& [name, type] : plan->schema()) refs.push_back(name);
  return refs;  // map order = sorted, matching PhysOperator::refs()
}

/// Serial batch drain used for threads=1 and non-parallelizable plans.
Result<std::vector<Row>> SerialDrainRows(const algebra::LogicalRef& plan,
                                         const ExecContext& ctx) {
  VODAK_ASSIGN_OR_RETURN(PhysOpPtr root, BuildPhysical(plan, ctx));
  VODAK_RETURN_IF_ERROR(root->Open());
  std::vector<Row> rows;
  RowBatch batch;
  Row row;
  for (;;) {
    VODAK_ASSIGN_OR_RETURN(bool more, root->NextBatch(&batch));
    if (!more) break;
    // Row hand-off is a density boundary: every column crosses into the
    // Row representation, so selected batches compact once here.
    batch.Compact();
    for (size_t r = 0; r < batch.num_rows(); ++r) {
      batch.CopyRowTo(r, &row);
      rows.push_back(std::move(row));
    }
  }
  root->Close();
  return rows;
}

/// One worker: build the plan clone, drain it over morsels, collect
/// rows. Runs on a pool thread; touches only worker-local state plus
/// the shared read-only / atomic plan state.
Status DrainWorker(const algebra::LogicalRef& plan, const ExecContext& ctx,
                   const ParallelPlanStatePtr& state,
                   std::vector<Row>* out) {
  VODAK_ASSIGN_OR_RETURN(PhysOpPtr root,
                         BuildPhysicalWorker(plan, ctx, state));
  VODAK_RETURN_IF_ERROR(root->Open());
  RowBatch batch;
  Row row;
  for (;;) {
    // Cancellation point of the morsel loop; the leaf's own ScanOp
    // check covers plans whose driving scan is deep under joins, this
    // one bounds the latency of the common flat drive to one morsel
    // batch even when upper operators buffer.
    VODAK_RETURN_IF_ERROR(CheckQueryAlive(ctx.cancel, ctx.deadline));
    VODAK_ASSIGN_OR_RETURN(bool more, root->NextBatch(&batch));
    if (!more) break;
    // Same density boundary as the serial drain: the morsel hand-off
    // into the per-worker row buffer compacts the selected rows once.
    batch.Compact();
    for (size_t r = 0; r < batch.num_rows(); ++r) {
      batch.CopyRowTo(r, &row);
      out->push_back(std::move(row));
    }
  }
  root->Close();
  return Status::OK();
}

/// Keeps the first occurrence of every distinct row, in place.
void DedupRows(std::vector<Row>* rows) {
  std::unordered_set<Row, RowHash, RowEq> seen;
  seen.reserve(rows->size());
  size_t kept = 0;
  for (size_t i = 0; i < rows->size(); ++i) {
    if (!seen.insert((*rows)[i]).second) continue;
    if (kept != i) (*rows)[kept] = std::move((*rows)[i]);
    ++kept;
  }
  rows->resize(kept);
}

}  // namespace

Result<std::vector<Row>> ParallelDrainRows(const algebra::LogicalRef& plan,
                                           const ExecContext& ctx,
                                           const ParallelOptions& options,
                                           bool* parallelized,
                                           ParallelPlanStatePtr prepared) {
  if (parallelized != nullptr) *parallelized = false;
  const size_t threads = ResolveThreads(options.threads);
  if (threads <= 1) return SerialDrainRows(plan, ctx);

  ParallelPlanStatePtr state = std::move(prepared);
  if (state == nullptr) {
    VODAK_ASSIGN_OR_RETURN(
        state, PrepareParallelPlan(plan, ctx, threads,
                                   options.morsel_size));
  }
  if (state == nullptr) return SerialDrainRows(plan, ctx);

  std::vector<std::vector<Row>> worker_rows(threads);
  std::vector<Status> worker_status(threads, Status::OK());
  auto task = [&](size_t w) {
    worker_status[w] = DrainWorker(plan, ctx, state, &worker_rows[w]);
  };
  if (options.pool != nullptr) {
    options.pool->ParallelRun(threads, task);
  } else {
    WorkerPool ephemeral(threads);
    ephemeral.ParallelRun(threads, task);
  }
  for (const Status& status : worker_status) {
    VODAK_RETURN_IF_ERROR(status);
  }

  size_t total = 0;
  for (const auto& rows : worker_rows) total += rows.size();
  std::vector<Row> merged;
  merged.reserve(total);
  for (auto& rows : worker_rows) {
    for (Row& row : rows) merged.push_back(std::move(row));
    rows.clear();
    rows.shrink_to_fit();
  }
  // Per-worker dedup is only local; distinct rows straddling a worker
  // boundary need the final single-threaded pass.
  if (ParallelPlanNeedsFinalDedup(*state)) DedupRows(&merged);
  if (parallelized != nullptr) *parallelized = true;
  return merged;
}

Result<std::vector<ConcurrentQueryOutcome>> ExecuteConcurrentOutcomes(
    const std::vector<ConcurrentQuery>& queries, const ExecContext& ctx,
    const ConcurrentOptions& options) {
  std::vector<ConcurrentQueryOutcome> out(queries.size());
  if (queries.empty()) return out;

  // One manager per batch: its shared scans and property-column cache
  // live exactly as long as the queries that attach to them, and
  // materialize at the batch's pinned snapshot.
  SharedScanManager manager(ctx.store, options.morsel_size,
                            ctx.snapshot_epoch, ctx.segments);
  ExecContext query_ctx = ctx;
  if (options.shared_scan) {
    query_ctx.shared_scans = &manager;
    query_ctx.property_cache = manager.property_cache();
  }

  const auto submitted = std::chrono::steady_clock::now();
  auto ms_since = [](std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
  };
  auto task = [&](size_t q) {
    ConcurrentQueryOutcome& o = out[q];
    o.queue_ms = ms_since(submitted);
    const auto drain_start = std::chrono::steady_clock::now();
    o.status = [&]() -> Status {
      ExecContext member_ctx = query_ctx;
      member_ctx.cancel = queries[q].cancel;
      member_ctx.deadline = queries[q].deadline;
      // A query cancelled or expired while waiting for a lane never
      // opens: it must not attach (and so never claims ring morsels it
      // would abandon), and its siblings drain on unaffected.
      VODAK_RETURN_IF_ERROR(
          CheckQueryAlive(member_ctx.cancel, member_ctx.deadline));
      VODAK_ASSIGN_OR_RETURN(PhysOpPtr root,
                             BuildPhysical(queries[q].plan, member_ctx));
      VODAK_ASSIGN_OR_RETURN(
          o.value, ExecuteColumn(root.get(), queries[q].result_ref));
      return Status::OK();
    }();
    o.drain_ms = ms_since(drain_start);
  };
  // options.threads sizes the concurrent drains even when a reusable
  // pool is supplied: a session pool warmed wider by an earlier query
  // must not silently widen this batch beyond its knob (nor an
  // undersized pool silently narrow it), so a mis-sized pool falls
  // back to an ephemeral lanes-sized one.
  const size_t lanes =
      std::min(ResolveThreads(options.threads), queries.size());
  if (options.pool != nullptr && options.pool->parallelism() == lanes) {
    options.pool->ParallelRun(queries.size(), task);
  } else {
    WorkerPool ephemeral(lanes);
    ephemeral.ParallelRun(queries.size(), task);
  }
  return out;
}

Result<std::vector<Value>> ExecuteConcurrentColumns(
    const std::vector<ConcurrentQuery>& queries, const ExecContext& ctx,
    const ConcurrentOptions& options) {
  VODAK_ASSIGN_OR_RETURN(std::vector<ConcurrentQueryOutcome> outcomes,
                         ExecuteConcurrentOutcomes(queries, ctx, options));
  std::vector<Value> results(outcomes.size());
  for (size_t i = 0; i < outcomes.size(); ++i) {
    VODAK_RETURN_IF_ERROR(outcomes[i].status);
    results[i] = std::move(outcomes[i].value);
  }
  return results;
}

Result<Value> ParallelExecuteColumn(const algebra::LogicalRef& plan,
                                    const ExecContext& ctx,
                                    const std::string& ref,
                                    const ParallelOptions& options,
                                    ParallelPlanStatePtr prepared) {
  const std::vector<std::string> refs = SchemaRefs(plan);
  int index = -1;
  for (size_t i = 0; i < refs.size(); ++i) {
    if (refs[i] == ref) index = static_cast<int>(i);
  }
  if (index < 0) {
    return Status::PlanError("result reference '" + ref +
                             "' not produced by plan");
  }
  VODAK_ASSIGN_OR_RETURN(
      std::vector<Row> rows,
      ParallelDrainRows(plan, ctx, options, /*parallelized=*/nullptr,
                        std::move(prepared)));
  std::vector<Value> values;
  values.reserve(rows.size());
  for (Row& row : rows) values.push_back(std::move(row[index]));
  return Value::Set(std::move(values));
}

}  // namespace exec
}  // namespace vodak
