// Morsel-driven parallel drivers over the NextBatch pipeline. The
// driving-path analysis, shared-build rules and the serial-fallback
// conditions are documented in docs/ARCHITECTURE.md §"Morsel-driven
// parallelism" and §"Serial-fallback rules".
#ifndef VODAK_EXEC_PARALLEL_H_
#define VODAK_EXEC_PARALLEL_H_

#include <string>
#include <vector>

#include "exec/morsel_source.h"
#include "exec/physical.h"
#include "exec/shared_scan.h"
#include "exec/worker_pool.h"

namespace vodak {
namespace exec {

/// Knobs for the morsel-driven parallel pipeline drivers.
struct ParallelOptions {
  /// Worker count. 1 runs the serial batch pipeline (the degenerate
  /// case); 0 resolves to the hardware concurrency.
  size_t threads = 1;
  /// Upper bound on rows per morsel; the planner shrinks morsels below
  /// this so each worker sees several morsels (dynamic load balance).
  size_t morsel_size = kDefaultMorselSize;
  /// Reusable pool to run on; when null an ephemeral pool of `threads`
  /// lanes is spun up for the query.
  WorkerPool* pool = nullptr;
};

/// Drains `plan` into its result row multiset through the parallel
/// pipeline: every worker runs its own clone of the NextBatch operator
/// chain over morsels of the shared driving scan, and the per-worker
/// outputs are concatenated (order-insensitive multiset semantics; a
/// final single-threaded dedup pass applies when the plan dedups on the
/// driving path). Falls back to the serial batch drain when threads is
/// 1 or the plan has no parallelizable driving scan; `parallelized`
/// (optional) reports which path ran. The row order is unspecified in
/// the parallel case.
/// `prepared` (optional) supplies the plan state from an earlier
/// PrepareParallelPlan call with the same resolved thread count and
/// morsel cap, so callers that probe parallelizability first don't pay
/// a second driving-scan materialization.
Result<std::vector<Row>> ParallelDrainRows(
    const algebra::LogicalRef& plan, const ExecContext& ctx,
    const ParallelOptions& options, bool* parallelized = nullptr,
    ParallelPlanStatePtr prepared = nullptr);

/// Parallel counterpart of ExecuteColumn: drains the plan in parallel
/// and canonicalizes one reference's column into a value set.
Result<Value> ParallelExecuteColumn(const algebra::LogicalRef& plan,
                                    const ExecContext& ctx,
                                    const std::string& ref,
                                    const ParallelOptions& options,
                                    ParallelPlanStatePtr prepared = nullptr);

/// One query of a concurrent batch: its plan plus the reference whose
/// column is the query result (algebra::ResultRef of the bound query),
/// and the per-query execution knobs — cancellation and deadline — that
/// used to leak into the batch-level options.
struct ConcurrentQuery {
  algebra::LogicalRef plan;
  std::string result_ref;
  /// This query's cancel flag (null: not cancellable) and deadline;
  /// checked before the drain opens and at every scan-leaf batch.
  const CancellationToken* cancel = nullptr;
  Deadline deadline;
};

/// Knobs for the shared-scan multi-query driver.
struct ConcurrentOptions {
  /// Worker lanes the query batch drains on; each query is one task
  /// (queries beyond the lane count queue and run as lanes free up).
  /// 0 resolves to the hardware concurrency.
  size_t threads = 0;
  /// Morsel size of the shared scans' fixed fan-out ring.
  size_t morsel_size = kDefaultMorselSize;
  /// True attaches every query's scan leaves to one SharedScanManager
  /// (one scan pass and one property-column read per source for the
  /// whole batch); false runs the same queries with private cursors —
  /// the measurable K-independent-queries baseline.
  bool shared_scan = true;
  /// Reusable pool; when null — or when the supplied pool's
  /// parallelism differs from the resolved lane count, so the knob
  /// rather than the pool sizes the batch — an ephemeral pool is spun
  /// up.
  WorkerPool* pool = nullptr;
};

/// What one query of a concurrent batch came back with. `status` is
/// per query: a cancelled or expired member reports kCancelled /
/// kDeadlineExceeded here without failing its siblings (a partial
/// ring walk releases nothing the others depend on — the shared scan's
/// exactly-once is per consumer).
struct ConcurrentQueryOutcome {
  Status status;
  /// The result value set; meaningful only when status.ok().
  Value value;
  /// Time from batch submission until a lane picked the query up, and
  /// the query's own drain time — the honest per-query split of the
  /// batch's wall clock (execute_ms used to report the whole batch's
  /// drain for every member).
  double queue_ms = 0.0;
  double drain_ms = 0.0;
};

/// The shared-scan multi-query driver: runs K query plans concurrently
/// — one worker task per query, each draining its own serial NextBatch
/// chain — with all scan leaves attached to one shared scan per source
/// (ConcurrentOptions::shared_scan). outcomes[i] belongs to
/// queries[i]; an OK outcome's value is exactly what
/// ExecuteColumn(plan, result_ref) returns for that query alone.
/// Queries attach whenever their leaf Opens, so a task that starts
/// late joins the in-flight scan and circles back for the morsels it
/// missed. The batch-level Result is only for setup failure; per-query
/// failures land in the outcomes.
Result<std::vector<ConcurrentQueryOutcome>> ExecuteConcurrentOutcomes(
    const std::vector<ConcurrentQuery>& queries, const ExecContext& ctx,
    const ConcurrentOptions& options);

/// All-or-nothing wrapper over ExecuteConcurrentOutcomes: results[i]
/// is queries[i]'s value set, and the first non-OK member outcome
/// fails the whole call (the pre-outcome contract, kept for callers
/// without per-query error handling).
Result<std::vector<Value>> ExecuteConcurrentColumns(
    const std::vector<ConcurrentQuery>& queries, const ExecContext& ctx,
    const ConcurrentOptions& options);

}  // namespace exec
}  // namespace vodak

#endif  // VODAK_EXEC_PARALLEL_H_
