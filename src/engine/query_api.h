// The session's query API types: PlanOptions (planning knobs),
// RunOptions (one query's execution knobs; none has an effect today)
// and SubmitOptions (batch-level knobs).
// Database::Submit(std::vector<QueryRequest>) →
// std::vector<QueryOutcome> is the one entry point (Run is a one-query
// shim over it); the migration table is in
// docs/ARCHITECTURE.md §"Query service & admission control".
#ifndef VODAK_ENGINE_QUERY_API_H_
#define VODAK_ENGINE_QUERY_API_H_

#include <string>
#include <vector>

#include "algebra/logical.h"
#include "exec/cancellation.h"
#include "objstore/epoch.h"
#include "objstore/object_store.h"
#include "optimizer/optimizer.h"

namespace vodak {
namespace engine {

/// Planning knobs: everything that shapes the chosen plan, nothing
/// about how (or whether) it executes. Brace-initialization keeps the
/// old ExecOptions call shape — `Run(vql, {/*optimize=*/false})`.
struct PlanOptions {
  /// Run the generated optimizer; false executes the plain §4.1
  /// translation (the ablation baseline).
  bool optimize = true;
  /// Record the rule-application storyboard (the §7 demonstrator).
  bool trace = false;
};

/// One query's execution knobs. The batch-level lane count lives in
/// SubmitOptions.
struct RunOptions {
  /// Ignored: every read drains its operator tree on one thread.
  /// Kept only because perfbench's stale-answer re-check still
  /// assigns it; it goes with that assignment.
  size_t threads = 1;
};

/// Batch-level knobs of one Submit call.
struct SubmitOptions {
  /// Worker lanes the query batch drains on; each query is one task
  /// (queries beyond the lane count queue and run as lanes free up).
  /// 0 resolves to the hardware concurrency.
  size_t lanes = 0;
};

/// One query of a Submit batch. A request is a *write* when
/// `mutations` is non-empty (a programmatic batch) or when `vql` is a
/// write statement (INSERT INTO / UPDATE / DELETE FROM); writes commit
/// atomically under one epoch bump and run in request order during
/// admission, before the batch's readers drain (see
/// Database::Submit).
struct QueryRequest {
  std::string vql;
  /// Programmatic write batch; non-empty makes this request a write
  /// and `vql` is ignored.
  std::vector<Mutation> mutations;
  /// Cancel flag the caller may trip from any thread (null: not
  /// cancellable). The token must outlive the Submit call.
  const exec::CancellationToken* cancel = nullptr;
  /// Per-query deadline; already-expired deadlines are rejected at
  /// admission with kDeadlineExceeded, before any planning.
  exec::Deadline deadline;
  PlanOptions plan;
  RunOptions run;
};

/// Everything one query execution produced.
struct QueryResult {
  /// The result value set (ACCESS-expression values).
  Value result;
  /// Plans before/after optimization and their estimated costs.
  algebra::LogicalRef original_plan;
  algebra::LogicalRef chosen_plan;
  double original_cost = 0.0;
  double chosen_cost = 0.0;
  /// Optimizer statistics (zeroed when optimize=false).
  size_t memo_groups = 0;
  size_t memo_exprs = 0;
  size_t rule_applications = 0;
  std::vector<opt::TraceEntry> trace;
  /// Wall-clock milliseconds. execute_ms is this query's own drain
  /// time (== QueryStats::drain_ms), not the batch's.
  double optimize_ms = 0.0;
  double execute_ms = 0.0;
  /// Physical plan rendering.
  std::string physical_explain;
  /// The epoch this query read at (write requests: the epoch their
  /// batch committed as). Duplicated from QueryStats::snapshot_epoch so
  /// the Run shim — which drops stats — still surfaces it.
  Epoch snapshot_epoch = kEpochLatest;
};

/// Per-query timing and placement stats — the honest replacement for
/// the old concurrent path's execute_ms, which reported the whole
/// batch's drain time for every member.
struct QueryStats {
  /// Time spent waiting for a lane (from batch submission / service
  /// admission until the drain picked the query up).
  double queue_ms = 0.0;
  /// Planning time (parse / bind / optimize).
  double plan_ms = 0.0;
  /// This query's own drain time.
  double drain_ms = 0.0;
  /// The generation (Submit batch or service generation) the query
  /// drained in (0: never reached a drain — rejected at admission or
  /// planning failed).
  uint64_t generation_id = 0;
  /// The snapshot this query executed against: readers report the
  /// epoch pinned at admission; write requests report the epoch their
  /// mutation batch committed as.
  Epoch snapshot_epoch = kEpochLatest;
};

/// One query's complete outcome. `status` is per query: a cancelled,
/// expired or failed member never fails its siblings.
struct QueryOutcome {
  Status status;
  /// Meaningful when status.ok(); on failure only the planning-side
  /// fields that were produced before the failure are filled.
  QueryResult result;
  QueryStats stats;
};

/// A planned-but-not-executed query: the planning half of Run, exposed
/// so the query service can plan on its event thread (planning is
/// serialized there — the optimizer module is not built for concurrent
/// Optimize calls) and hand the plan to a generation drain.
struct PreparedQuery {
  /// Plan-side QueryResult fields (plans, costs, optimizer stats,
  /// optimize_ms); result/execute_ms stay empty.
  QueryResult planned;
  /// The reference whose column is the query result
  /// (algebra::ResultRef of the bound query).
  std::string result_ref;
};

}  // namespace engine
}  // namespace vodak

#endif  // VODAK_ENGINE_QUERY_API_H_
