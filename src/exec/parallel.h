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
#include "exec/worker_pool.h"

namespace vodak {
namespace exec {

/// Knobs for the morsel-driven parallel pipeline drivers.
struct ParallelOptions {
  /// Worker count. 1 runs the serial batch pipeline (the degenerate
  /// case); 0 resolves to the hardware concurrency.
  size_t threads = 1;
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
/// PrepareParallelPlan call with the same resolved thread count, so
/// callers that probe parallelizability first don't pay a second
/// driving-scan materialization; its morsel cap then applies. Without
/// it, morsels are capped at kDefaultMorselSize.
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

}  // namespace exec
}  // namespace vodak

#endif  // VODAK_EXEC_PARALLEL_H_
