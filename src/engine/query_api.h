// The session's query API types. PR 7 split the old catch-all
// ExecOptions into PlanOptions (planning knobs) / RunOptions (one
// query's execution knobs) / SubmitOptions (batch-level knobs), and
// made Database::Submit(std::vector<QueryRequest>) →
// std::vector<QueryOutcome> the one entry point (Run is a one-query
// shim over it); the migration table is in
// docs/ARCHITECTURE.md §"Query service & admission control".
#ifndef VODAK_ENGINE_QUERY_API_H_
#define VODAK_ENGINE_QUERY_API_H_

#include <string>
#include <vector>

#include "algebra/logical.h"
#include "exec/cancellation.h"
#include "exec/morsel_source.h"
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

/// Compiled-execution choice for one query. kAuto lets the batch-aware
/// cost model pick VM vs operator tree (the production default); kOff
/// pins the operator tree (the differential baseline); kForce compiles
/// every *eligible* plan regardless of cost (the differential subject —
/// ineligible shapes still fall back to the tree). Parallel and
/// shared-scan drains never use the VM.
enum class VmMode { kAuto, kOff, kForce };

/// One query's execution knobs. Batch-level knobs (lanes, shared
/// scans) live in SubmitOptions — they never made sense per query.
struct RunOptions {
  /// Worker threads for *intra-query* morsel-driven parallelism when
  /// the query runs alone. 1 keeps the serial pipeline, 0 resolves to
  /// the hardware concurrency. Ignored for multi-query Submit batches,
  /// where SubmitOptions::lanes sizes the inter-query parallelism
  /// instead.
  size_t threads = 1;
  /// Upper bound on rows per morsel in the parallel path.
  size_t morsel_size = exec::kDefaultMorselSize;
  /// Compiled execution: whether the serial drain may lower the
  /// plan to the bytecode VM (exec/vm.h). EXPLAIN reports the choice
  /// either way as a `[vm: ...]` annotation.
  VmMode vm = VmMode::kAuto;
};

/// Batch-level knobs of one Submit call.
struct SubmitOptions {
  /// Worker lanes the query batch drains on; each query is one task
  /// (queries beyond the lane count queue and run as lanes free up).
  /// 0 resolves to the hardware concurrency.
  size_t lanes = 0;
  /// Morsel size of the shared scans' fixed fan-out ring.
  size_t morsel_size = exec::kDefaultMorselSize;
  /// True attaches every query's scan leaves to one SharedScanManager
  /// (one scan pass and one property-column read per source for the
  /// whole batch); false runs the same queries with private cursors —
  /// the measurable K-independent-queries baseline.
  bool shared_scan = true;
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
  /// The shared-scan generation the query drained in (0: never reached
  /// a drain — rejected at admission or planning failed).
  uint64_t generation_id = 0;
  /// True when the query joined a generation whose shared-scan pass
  /// was already in flight and circled back for the morsels it missed.
  bool attached_late = false;
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
