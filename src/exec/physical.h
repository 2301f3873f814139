// Physical operators: the batch-at-a-time (NextBatch) pipeline. The
// operator-by-operator batch behavior and the parallel worker-clone
// machinery are documented in docs/ARCHITECTURE.md §"The NextBatch
// pipeline" and §"Morsel-driven parallelism". Each operator's density contract — whether it accepts
// and emits selected or compacted batches — is the operator-contract
// table in docs/ARCHITECTURE.md §"Selection vectors"; the per-operator
// comments in physical.cc name their row.
#ifndef VODAK_EXEC_PHYSICAL_H_
#define VODAK_EXEC_PHYSICAL_H_

#include <memory>
#include <string>
#include <vector>

#include "algebra/logical.h"
#include "exec/cancellation.h"
#include "exec/row_batch.h"
#include "expr/expr_eval.h"
#include "storage/segment_store.h"

namespace vodak {

class PropertyColumnCache;

namespace exec {

class SharedScanManager;

/// The paper's physical algebra, grown from the classic Volcano
/// open/next/close iterator into a batch-at-a-time pipeline: NextBatch
/// moves ~kDefaultBatchSize rows per virtual call and evaluates operator
/// parameters through the batched expression entry points. Every
/// operator carries its output reference list and basic runtime
/// counters for the benchmark harness.
class PhysOperator {
 public:
  explicit PhysOperator(std::vector<std::string> refs)
      : refs_(std::move(refs)) {}
  virtual ~PhysOperator() = default;

  virtual Status Open() = 0;
  /// Produces the next batch of rows; returns false at end of stream. A
  /// true return means the batch holds at least one *live* row — the
  /// batch may carry a selection vector (filters mark survivors instead
  /// of moving values), so consumers iterate active_rows()/RowAt() or
  /// Compact() at a density boundary.
  virtual Result<bool> NextBatch(RowBatch* batch) = 0;
  virtual void Close() = 0;

  const std::vector<std::string>& refs() const { return refs_; }
  int RefIndex(const std::string& name) const;

  virtual std::string name() const = 0;
  /// One-line parameter description for EXPLAIN output.
  virtual std::string params() const { return ""; }
  virtual const std::vector<const PhysOperator*> children() const = 0;

  uint64_t rows_produced() const { return rows_produced_; }

 protected:
  std::vector<std::string> refs_;
  uint64_t rows_produced_ = 0;
};

using PhysOpPtr = std::unique_ptr<PhysOperator>;

/// Abstract supplier of a leaf scan's rows: one column of values,
/// delivered batch-at-a-time. Scan leaves are one generic operator
/// (`ScanOp` in physical.cc) constructed against this interface, so the
/// same leaf runs over a private cursor (extent / method scan), the
/// intra-query morsel cursor (parallel worker clones) or a shared-scan
/// attachment (cross-query sharing, docs/ARCHITECTURE.md §"Shared
/// scans") — the executor above the leaf cannot tell them apart.
class BatchSource {
 public:
  virtual ~BatchSource() = default;

  /// (Re)starts a full pass over the source. Private sources
  /// materialize here (the scan-pass cost); shared sources attach a
  /// fresh consumer to the managed scan — which is where a
  /// late-arriving query joins the in-flight pass.
  virtual Status Open() = 0;
  /// Emits the next (dense, single-column) batch; false at end of the
  /// pass, persistently.
  virtual Result<bool> NextBatch(RowBatch* batch) = 0;
  virtual void Close() = 0;

  /// EXPLAIN operator name ("ExtentScan", "MethodScan", "MorselScan",
  /// "SharedScan", "SegmentScan") and source description (class or
  /// expression).
  virtual std::string name() const = 0;
  virtual std::string describe() const = 0;
  /// Uniform EXPLAIN source annotation, appended to the leaf operator's
  /// params: every source kind prints `[source: <kind>]`, and
  /// segment-pruned kinds add `[segments: scanned S / skipped K]`.
  virtual std::string annotation() const = 0;
};

using BatchSourcePtr = std::unique_ptr<BatchSource>;

/// Everything operators need at runtime.
struct ExecContext {
  const Catalog* catalog = nullptr;
  ObjectStore* store = nullptr;
  MethodRegistry* methods = nullptr;
  /// Cross-query shared-scan attachment point. When set, every scan
  /// leaf (extent and method scan) attaches to this manager's shared
  /// cursors instead of opening a private one, so the K queries of a
  /// concurrent batch pay ~1 scan pass per source instead of K. Null —
  /// the default, and the measurable baseline ExecuteConcurrent keeps
  /// behind its shared_scan flag — builds private-cursor leaves.
  SharedScanManager* shared_scans = nullptr;
  /// Cross-query property-column cache (normally the manager's own);
  /// threaded into every operator's evaluator so attached queries share
  /// column reads as well as the scan pass. Null reads the store
  /// directly.
  PropertyColumnCache* property_cache = nullptr;
  /// This query's cancel flag (null: not cancellable) and deadline
  /// (default: none). Polled at batch boundaries — every scan leaf's
  /// NextBatch/refill and every nested-loop join output batch — so a
  /// cancel or an expired deadline surfaces as kCancelled /
  /// kDeadlineExceeded within ~one batch. Worker clones
  /// copy the context, so all lanes of one query observe the same flag.
  const CancellationToken* cancel = nullptr;
  Deadline deadline;
  /// The epoch every store read of this query resolves at — pinned by
  /// Database::Submit (or the generation scheduler) at admission, so
  /// the whole operator tree sees one consistent snapshot while writer
  /// batches commit. kEpochLatest (the default) resolves per store
  /// call; only read-only paths may leave it.
  Epoch snapshot_epoch = kEpochLatest;
  /// Paged segment store (docs/ARCHITECTURE.md §"Paged storage &
  /// segment skipping"). When set and a scan leaf's class has a
  /// SegmentVersion visible at snapshot_epoch, the leaf streams the
  /// extent segment-by-segment through the pager's buffer cache and
  /// skips segments whose zone maps refute the query's sargable
  /// predicates. Null — the default — keeps every leaf on the
  /// in-memory extent paths.
  const storage::SegmentStore* segments = nullptr;
};

/// Compiles a logical plan into a physical operator tree. Algorithm
/// choice is deterministic and mirrors the cost model: natural joins and
/// bare-variable equality joins become hash joins, everything else nested
/// loops; map/flat/select evaluate their (restricted-algebra-decomposed)
/// expression parameters per row.
Result<PhysOpPtr> BuildPhysical(const algebra::LogicalRef& plan,
                                const ExecContext& ctx);

/// Builds the private batch source for a scan leaf (kGet → segment or
/// extent cursor, kExprSource → method/expression scan), honoring the
/// context's shared-scan attachment. BuildPhysical's leaves and the VM
/// backend (exec/vm.h) both come through here — same cursor kinds, same
/// pinned snapshot epoch. `preds` are the query's sargable predicates
/// over this leaf's scan variable (normalized `col op const` conjuncts,
/// extracted by exec/sargable.h) so a segment-backed source can
/// zone-map-skip; may be null or empty, non-segment sources ignore it.
Result<BatchSourcePtr> MakeLeafBatchSource(
    const algebra::LogicalNode& leaf, const ExecContext& ctx,
    const std::vector<storage::SlotPredicate>* preds);

/// Drains the operator tree into a set of tuples (the algebra's result).
Result<Value> ExecuteToSet(PhysOperator* root);

/// Drains the tree and projects one reference, returning a value set.
Result<Value> ExecuteColumn(PhysOperator* root, const std::string& ref);

/// Shared, per-query state behind the morsel-driven parallel pipeline
/// (exec/parallel.h): the materialized driving scan with its atomic
/// morsel cursor, plus once-built hash-join tables and nested-loop
/// materializations shared read-only by the worker-local plan clones.
/// Opaque outside physical.cc; created by PrepareParallelPlan and
/// consumed by BuildPhysicalWorker.
class ParallelPlanState;
using ParallelPlanStatePtr = std::shared_ptr<ParallelPlanState>;

/// Analyzes `plan` for morsel-driven execution and materializes the
/// driving scan (the input(0)-chain leaf: extent or method scan) once.
/// Returns a null pointer — not an error — when the plan has no
/// parallelizable driving path (set operators on the path); callers
/// then fall back to the serial pipeline. `threads` sizes morsels for
/// load balance; `max_morsel_size` caps the rows per morsel.
Result<ParallelPlanStatePtr> PrepareParallelPlan(
    const algebra::LogicalRef& plan, const ExecContext& ctx,
    size_t threads, size_t max_morsel_size);

/// True when worker-local results must pass through a final
/// single-threaded dedup (the plan dedups on the driving path, which
/// workers can only apply locally).
bool ParallelPlanNeedsFinalDedup(const ParallelPlanState& state);

/// Builds one worker's clone of the plan: the driving leaf reads
/// morsels from the shared cursor and joins share their build side
/// through `state`. Each worker drains its own clone; the merged
/// per-worker outputs form the plan's result multiset.
Result<PhysOpPtr> BuildPhysicalWorker(const algebra::LogicalRef& plan,
                                      const ExecContext& ctx,
                                      const ParallelPlanStatePtr& state);

/// Indented physical EXPLAIN with the restricted-algebra decomposition
/// of operator parameters (§6.1): complex expressions are shown as
/// map_property / map_method / map_operator step chains.
std::string ExplainPhysical(const PhysOperator& root);

/// Renders an expression as the §6.1 restricted-algebra operator chain
/// it decomposes into, e.g. `p.section.document` becomes
/// `map_property<t1, section, p>; map_property<t2, document, t1>`.
std::string DecomposeToRestrictedOps(const ExprRef& expr);

}  // namespace exec
}  // namespace vodak

#endif  // VODAK_EXEC_PHYSICAL_H_
