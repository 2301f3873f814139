// Physical operators: the batch-at-a-time (NextBatch) pipeline. The
// operator-by-operator batch behavior is documented in
// docs/ARCHITECTURE.md §"The NextBatch pipeline". Each operator's
// density contract — whether it accepts and emits selected or
// compacted batches — is the operator-contract table in
// docs/ARCHITECTURE.md §"Selection vectors"; the per-operator comments
// in physical.cc name their row.
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
namespace exec {

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

/// Everything operators need at runtime.
struct ExecContext {
  const Catalog* catalog = nullptr;
  ObjectStore* store = nullptr;
  MethodRegistry* methods = nullptr;
  /// This query's cancel flag (null: not cancellable) and deadline
  /// (default: none). Polled at batch boundaries — every scan leaf's
  /// NextBatch/refill and every nested-loop join output batch — so a
  /// cancel or an expired deadline surfaces as kCancelled /
  /// kDeadlineExceeded within ~one batch.
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
/// expression parameters per row, and each run of stacked selects is
/// one Filter (docs/ARCHITECTURE.md §"One Filter per run of selects").
Result<PhysOpPtr> BuildPhysical(const algebra::LogicalRef& plan,
                                const ExecContext& ctx);

/// Drains the operator tree into a set of tuples (the algebra's result).
Result<Value> ExecuteToSet(PhysOperator* root);

/// Drains the tree and projects one reference, returning a value set.
/// Values move out of each output batch into Value::Set, which sorts
/// all-OID, all-INT and all-STRING results on their raw keys.
Result<Value> ExecuteColumn(PhysOperator* root, const std::string& ref);

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
