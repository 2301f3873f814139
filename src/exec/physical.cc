#include "exec/physical.h"

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>

#include "common/string_util.h"
#include "common/vm_stats.h"
#include "exec/morsel_source.h"
#include "exec/row_hash.h"
#include "exec/sargable.h"
#include "exec/shared_scan.h"

namespace vodak {
namespace exec {

using algebra::LogicalNode;
using algebra::LogicalOp;
using algebra::LogicalRef;

int PhysOperator::RefIndex(const std::string& name) const {
  for (size_t i = 0; i < refs_.size(); ++i) {
    if (refs_[i] == name) return static_cast<int>(i);
  }
  return -1;
}

namespace {

std::vector<std::string> RefsOf(const LogicalRef& node) {
  std::vector<std::string> refs;
  refs.reserve(node->schema().size());
  for (const auto& [name, type] : node->schema()) refs.push_back(name);
  return refs;  // map order = sorted
}

/// Batch environment over a batch's live rows: dense when the batch is
/// dense, the selection view otherwise — so the expression layer only
/// ever evaluates the selected rows. Callers must not pass an
/// empty-selection batch (an empty selection has no data() to view);
/// the pipeline's never-empty invariant guarantees they don't.
BatchEnv EnvOfBatch(const std::vector<std::string>& refs,
                    const RowBatch& batch) {
  BatchEnv env{&refs, &batch.columns(), batch.num_rows()};
  batch.ExportSelectionTo(&env);
  return env;
}

/// Fills a single-column batch with up to kDefaultBatchSize elements
/// taken from a source of `size` elements starting at `*pos`; `emit`
/// maps a source index to the column value. Shared by the leaf scans.
template <typename Emit>
size_t FillScanBatch(RowBatch* batch, size_t size, size_t* pos,
                     Emit emit) {
  batch->Reset(1);
  const size_t remaining = *pos < size ? size - *pos : 0;
  const size_t n = std::min(kDefaultBatchSize, remaining);
  auto& col = batch->column(0);
  col.reserve(n);
  for (size_t i = 0; i < n; ++i) col.push_back(emit((*pos)++));
  batch->set_num_rows(n);
  return n;
}

}  // namespace

// Row hashing/equality shared with the parallel driver: exec/row_hash.h.
using JoinTable = std::unordered_map<Row, std::vector<Row>, RowHash, RowEq>;

/// Once-built hash-join table shared read-only by the worker clones of
/// one logical join node. The winner of the call_once races builds from
/// its own (deterministic) build subtree; everyone probes the result.
///
/// Concurrency contract (docs/ARCHITECTURE.md §"Static analysis &
/// concurrency contracts"): `table`/`status` are published by `once` —
/// call_once's release/acquire edge is the only synchronization, so
/// they are written exclusively inside the call_once body and
/// read-only ever after. No mutex, hence no GUARDED_BY: the once_flag
/// plays the capability's role and TSan verifies the edge.
struct SharedJoinBuild {
  std::once_flag once;
  JoinTable table;
  Status status = Status::OK();
};

/// Same sharing (and the same once-publication contract) for a
/// nested-loop join's materialized inner side.
struct SharedInnerRows {
  std::once_flag once;
  std::vector<Row> rows;
  Status status = Status::OK();
};

/// See physical.h. Configured single-threaded by PrepareParallelPlan;
/// after workers start, the only mutations go through the atomic morsel
/// cursor and the per-join once_flags.
class ParallelPlanState {
 public:
  /// The driving scan: the leaf reached by following input(0) edges.
  const algebra::LogicalNode* driving_leaf = nullptr;
  bool leaf_is_extent = false;
  std::vector<Oid> extent;   // kGet driving leaf
  ValueSet elements;         // kExprSource driving leaf
  MorselSource morsels;
  bool needs_final_dedup = false;
  /// Segment pruning applied while materializing an extent driving
  /// leaf from the paged segment store: `extent` holds only the rows
  /// of the `pruning.scanned` surviving segments; `pruning.skipped`
  /// segments were refuted by zone maps. Both 0 when the leaf came
  /// from the in-memory store.
  bool segment_backed = false;
  storage::PruneCounts pruning;
  /// Pre-created entries for every join node in the plan (keyed by node
  /// identity), so worker-side plan construction never mutates the maps.
  std::map<const algebra::LogicalNode*, SharedJoinBuild> hash_builds;
  std::map<const algebra::LogicalNode*, SharedInnerRows> inner_rows;

  size_t driving_total() const {
    return leaf_is_extent ? extent.size() : elements.size();
  }
};

bool ParallelPlanNeedsFinalDedup(const ParallelPlanState& state) {
  return state.needs_final_dedup;
}

namespace {

/// Private extent cursor (the classic physical `get`): materializes the
/// class extension in Open — one scan pass per query per Open — and
/// slices it into column fills.
class ExtentBatchSource : public BatchSource {
 public:
  ExtentBatchSource(const ExecContext& ctx, std::string class_name,
                    uint32_t class_id)
      : store_(ctx.store),
        snapshot_(ctx.snapshot_epoch),
        class_name_(std::move(class_name)),
        class_id_(class_id) {}

  Status Open() override {
    VODAK_ASSIGN_OR_RETURN(extent_, store_->Extent(class_id_, snapshot_));
    pos_ = 0;
    return Status::OK();
  }
  Result<bool> NextBatch(RowBatch* batch) override {
    return FillScanBatch(batch, extent_.size(), &pos_, [this](size_t i) {
             return Value::OfOid(extent_[i]);
           }) > 0;
  }
  void Close() override { extent_.clear(); }
  std::string name() const override { return "ExtentScan"; }
  std::string describe() const override { return class_name_; }
  std::string annotation() const override { return "[source: extent]"; }

 private:
  ObjectStore* store_;
  Epoch snapshot_;
  std::string class_name_;
  uint32_t class_id_;
  std::vector<Oid> extent_;
  size_t pos_ = 0;
};

/// Private cursor over a closed set-valued expression — the physical
/// form of §3.2's "methods as algebraic operators" (e.g. an external
/// method scan like Paragraph→retrieve_by_string(s)).
class ExprBatchSource : public BatchSource {
 public:
  ExprBatchSource(const ExecContext& ctx, ExprRef expr)
      : evaluator_(ctx.catalog, ctx.store, ctx.methods,
                   ctx.property_cache, ctx.snapshot_epoch),
        expr_(std::move(expr)) {}

  Status Open() override {
    // EvalClosed routes the (closed) scan parameter through the batched
    // evaluator, so an external method behind the scan is dispatched
    // through the same set-at-a-time ABI as per-row method calls.
    VODAK_ASSIGN_OR_RETURN(Value set, evaluator_.EvalClosed(expr_));
    if (set.is_null()) {
      elements_.clear();
    } else if (set.is_set()) {
      elements_ = set.AsSet();
    } else {
      return Status::ExecError("expr_source evaluated to non-set " +
                               set.ToString());
    }
    pos_ = 0;
    return Status::OK();
  }
  Result<bool> NextBatch(RowBatch* batch) override {
    return FillScanBatch(batch, elements_.size(), &pos_,
                         [this](size_t i) { return elements_[i]; }) > 0;
  }
  void Close() override { elements_.clear(); }
  std::string name() const override { return "MethodScan"; }
  std::string describe() const override { return expr_->ToString(); }
  std::string annotation() const override { return "[source: expr]"; }

 private:
  ExprEvaluator evaluator_;
  ExprRef expr_;
  ValueSet elements_;
  size_t pos_ = 0;
};

/// Intra-query parallel source: one worker's view of the shared driving
/// scan. The source (extent Oids or method-scan elements) was
/// materialized once by PrepareParallelPlan; workers claim disjoint
/// [begin, end) morsels from the shared atomic cursor and emit them
/// batch by batch. A batch never spans a morsel boundary, so per-worker
/// output stays cache-local.
class MorselBatchSource : public BatchSource {
 public:
  MorselBatchSource(std::string source_desc, ParallelPlanState* state)
      : source_desc_(std::move(source_desc)), state_(state) {}

  Status Open() override {
    pos_ = 0;
    end_ = 0;
    return Status::OK();
  }
  Result<bool> NextBatch(RowBatch* batch) override {
    batch->Reset(1);
    if (pos_ >= end_ && !ClaimMorsel()) return false;
    const size_t n = std::min(kDefaultBatchSize, end_ - pos_);
    auto& col = batch->column(0);
    col.reserve(n);
    for (size_t i = 0; i < n; ++i) col.push_back(ValueAt(pos_++));
    batch->set_num_rows(n);
    return true;
  }
  void Close() override {}
  std::string name() const override { return "MorselScan"; }
  std::string describe() const override { return source_desc_; }
  std::string annotation() const override {
    if (!state_->segment_backed) return "[source: morsel]";
    return "[source: morsel] [segments: scanned " +
           std::to_string(state_->pruning.scanned) + " / skipped " +
           std::to_string(state_->pruning.skipped) + "]";
  }

 private:
  bool ClaimMorsel() {
    Morsel morsel;
    if (!state_->morsels.Next(&morsel)) return false;
    pos_ = morsel.begin;
    end_ = morsel.end;
    return true;
  }
  Value ValueAt(size_t i) const {
    return state_->leaf_is_extent ? Value::OfOid(state_->extent[i])
                                  : state_->elements[i];
  }

  std::string source_desc_;
  ParallelPlanState* state_;
  size_t pos_ = 0;
  size_t end_ = 0;
};

/// Cross-query shared source: attaches to the SharedScanManager's scan
/// for this leaf's source on every Open (so a re-opened leaf — or a
/// query that arrives while the batch is mid-scan — is a fresh
/// late-attaching consumer that circles back for what it missed) and
/// emits the consumer's morsels batch by batch. The materialization
/// cost is paid by the whole query batch exactly once, inside the
/// manager.
class SharedBatchSource : public BatchSource {
 public:
  /// Extent form. `preds` are this query's sargable conjuncts over the
  /// scan variable: when the manager materialized the ring from the
  /// segment store, morsels whose merged zone maps refute them are
  /// skipped — per consumer, since the ring is shared by queries with
  /// different predicates.
  SharedBatchSource(const ExecContext& ctx, std::string class_name,
                    uint32_t class_id,
                    std::vector<storage::SlotPredicate> preds)
      : manager_(ctx.shared_scans),
        class_name_(std::move(class_name)),
        class_id_(class_id),
        preds_(std::move(preds)) {}
  /// Method-scan form: `expr` is materialized (once per manager) via a
  /// private evaluator, exactly like ExprBatchSource::Open would.
  SharedBatchSource(const ExecContext& ctx, ExprRef expr)
      : manager_(ctx.shared_scans),
        evaluator_(std::make_unique<ExprEvaluator>(
            ctx.catalog, ctx.store, ctx.methods, ctx.property_cache,
            ctx.snapshot_epoch)),
        expr_(std::move(expr)) {}

  Status Open() override {
    if (expr_ != nullptr) {
      VODAK_ASSIGN_OR_RETURN(
          consumer_,
          manager_->AttachSource(expr_->ToString(), [this] {
            return evaluator_->EvalClosed(expr_);
          }));
    } else {
      VODAK_ASSIGN_OR_RETURN(consumer_, manager_->AttachExtent(class_id_));
    }
    pos_ = 0;
    end_ = 0;
    return Status::OK();
  }
  Result<bool> NextBatch(RowBatch* batch) override {
    while (pos_ >= end_) {
      Morsel morsel;
      size_t index = 0;
      if (!consumer_.Next(&morsel, &index)) {
        batch->Reset(1);
        return false;
      }
      if (!preds_.empty()) {
        // Segment-backed rings carry per-morsel merged zone maps; a
        // refuted morsel is skipped without touching its rows. The
        // skip is private to this consumer — other queries on the
        // same ring have their own predicates.
        const std::vector<storage::ZoneMap>* zones =
            consumer_.scan().MorselZones(index);
        if (zones != nullptr && storage::ZonesRefute(*zones, preds_)) {
          if (manager_->segments() != nullptr) {
            manager_->segments()->NotePruning(0, 1);
          }
          continue;
        }
        if (zones != nullptr && manager_->segments() != nullptr) {
          manager_->segments()->NotePruning(1, 0);
        }
      }
      pos_ = morsel.begin;
      end_ = morsel.end;
    }
    // Filling against end_ keeps a batch inside the current morsel,
    // like MorselBatchSource.
    return FillScanBatch(batch, end_, &pos_, [this](size_t i) {
             return consumer_.scan().ValueAt(i);
           }) > 0;
  }
  void Close() override { consumer_ = SharedScanConsumer(); }
  std::string name() const override { return "SharedScan"; }
  std::string describe() const override {
    return expr_ != nullptr ? expr_->ToString() : class_name_;
  }
  std::string annotation() const override { return "[source: shared]"; }

 private:
  SharedScanManager* manager_;
  std::unique_ptr<ExprEvaluator> evaluator_;
  ExprRef expr_;
  std::string class_name_;
  uint32_t class_id_ = 0;
  std::vector<storage::SlotPredicate> preds_;
  SharedScanConsumer consumer_;
  size_t pos_ = 0;
  size_t end_ = 0;
};

/// Paged segment cursor: streams a class extent segment-by-segment
/// through the pager's buffer cache, skipping segments whose zone maps
/// refute the query's sargable predicates (docs/ARCHITECTURE.md
/// §"Paged storage & segment skipping"). The survivor partition is
/// computed at construction — EXPLAIN renders before Open, and the
/// prospective counts are exactly what a drain will do. The store's
/// pruning totals (the cost model's survival-rate feedback) are bumped
/// on the first Open only: a leaf that is built but never drained (an
/// EXPLAIN skeleton, a tree the VM replaced) counts nothing, and a
/// re-Open counts nothing again.
class SegmentBatchSource : public BatchSource {
 public:
  SegmentBatchSource(const ExecContext& ctx, std::string class_name,
                     uint32_t class_id, storage::SegmentVersionRef version,
                     std::vector<storage::SlotPredicate> preds)
      : segments_(ctx.segments),
        class_name_(std::move(class_name)),
        class_id_(class_id),
        version_(std::move(version)),
        preds_(std::move(preds)) {
    for (const storage::Segment& seg : version_->segments) {
      if (storage::SegmentRefuted(seg, preds_)) {
        ++skipped_;
      } else {
        survivors_.push_back(&seg);
      }
    }
  }

  Status Open() override {
    if (!pruning_noted_) {
      pruning_noted_ = true;
      segments_->NotePruning(survivors_.size(), skipped_);
    }
    next_segment_ = 0;
    rows_.clear();
    pos_ = 0;
    return Status::OK();
  }
  Result<bool> NextBatch(RowBatch* batch) override {
    while (pos_ >= rows_.size()) {
      if (next_segment_ >= survivors_.size()) {
        batch->Reset(1);
        return false;
      }
      // One segment's OID column resident at a time: the page-sized
      // working set is what lets a scan run under a buffer cache far
      // smaller than the class.
      VODAK_ASSIGN_OR_RETURN(
          rows_, segments_->ReadLocals(*survivors_[next_segment_++]));
      pos_ = 0;
    }
    return FillScanBatch(batch, rows_.size(), &pos_, [this](size_t i) {
             return Value::OfOid(Oid(class_id_, rows_[i]));
           }) > 0;
  }
  void Close() override {
    rows_.clear();
    pos_ = 0;
  }
  std::string name() const override { return "SegmentScan"; }
  std::string describe() const override { return class_name_; }
  std::string annotation() const override {
    return "[source: segment] [segments: scanned " +
           std::to_string(survivors_.size()) + " / skipped " +
           std::to_string(skipped_) + "]";
  }

 private:
  const storage::SegmentStore* segments_;
  std::string class_name_;
  uint32_t class_id_;
  storage::SegmentVersionRef version_;
  std::vector<storage::SlotPredicate> preds_;
  std::vector<const storage::Segment*> survivors_;
  size_t skipped_ = 0;
  bool pruning_noted_ = false;
  size_t next_segment_ = 0;
  std::vector<uint32_t> rows_;
  size_t pos_ = 0;
};

/// The one leaf operator: a scan over an abstract BatchSource. Which
/// cursor actually feeds it — private, morsel, shared or segment — is
/// decided at plan-build time; the EXPLAIN name comes from the source
/// so plans read the same as before the refactor.
class ScanOp : public PhysOperator {
 public:
  ScanOp(const ExecContext& ctx, std::string ref, BatchSourcePtr source)
      : PhysOperator({std::move(ref)}),
        source_(std::move(source)),
        cancel_(ctx.cancel),
        deadline_(ctx.deadline) {}

  Status Open() override { return source_->Open(); }
  Result<bool> NextBatch(RowBatch* batch) override {
    // Every NextBatch entry counts one virtual batch hand-off, the
    // per-operator cost the VM backend (exec/vm.h) fuses away; vm_test's
    // FusedDispatchesStayBelowOperatorHandoffs checks the ratio.
    VmStats::operator_handoffs.fetch_add(1, std::memory_order_relaxed);
    // The executor's cancellation point: every pipeline drains through
    // its scan leaves (blocking join builds included), so one check per
    // leaf batch bounds cancel latency at ~a batch of rows — except
    // under a nested-loop join's fan-out, which polls on its own.
    VODAK_RETURN_IF_ERROR(CheckQueryAlive(cancel_, deadline_));
    VODAK_ASSIGN_OR_RETURN(bool more, source_->NextBatch(batch));
    if (more) rows_produced_ += batch->num_rows();
    return more;
  }
  void Close() override { source_->Close(); }
  std::string name() const override { return source_->name(); }
  std::string params() const override {
    return refs_[0] + " IN " + source_->describe() + " " +
           source_->annotation();
  }
  const std::vector<const PhysOperator*> children() const override {
    return {};
  }

 private:
  BatchSourcePtr source_;
  const CancellationToken* cancel_;
  Deadline deadline_;
};

/// Physical select<condition>. Density contract (operator-contract
/// table, docs/ARCHITECTURE.md §"Selection vectors"): accepts selected
/// or dense batches, emits *selected* batches — survivors are marked in
/// the selection vector, never moved.
class Filter : public PhysOperator {
 public:
  Filter(const ExecContext& ctx, PhysOpPtr child, ExprRef cond)
      : PhysOperator(child->refs()),
        evaluator_(ctx.catalog, ctx.store, ctx.methods,
                   ctx.property_cache, ctx.snapshot_epoch),
        child_(std::move(child)),
        cond_(std::move(cond)) {}

  Status Open() override { return child_->Open(); }
  Result<bool> NextBatch(RowBatch* batch) override {
    VmStats::operator_handoffs.fetch_add(1, std::memory_order_relaxed);
    // refs_ == child refs, so the child's batch is filtered in place:
    // the predicate is evaluated over the batch's selection view and
    // survivors are marked by intersecting the selection — no column
    // value moves. A stack of filters narrows one selection vector.
    for (;;) {
      VODAK_ASSIGN_OR_RETURN(bool more, child_->NextBatch(batch));
      if (!more) return false;
      BatchEnv env = EnvOfBatch(refs_, *batch);
      VODAK_RETURN_IF_ERROR(
          evaluator_.EvalPredicateBatch(cond_, env, &keep_));
      size_t kept = batch->IntersectSelection(keep_);
      if (kept > 0) {
        rows_produced_ += kept;
        return true;
      }
    }
  }
  void Close() override { child_->Close(); }
  std::string name() const override { return "Filter"; }
  std::string params() const override { return cond_->ToString(); }
  const std::vector<const PhysOperator*> children() const override {
    return {child_.get()};
  }

 private:
  ExprEvaluator evaluator_;
  PhysOpPtr child_;
  ExprRef cond_;
  std::vector<char> keep_;
};

/// Nested-loop join with an arbitrary condition; the inner (right) side
/// is materialized in Open. Density contract (operator-contract table,
/// docs/ARCHITECTURE.md §"Selection vectors"): the left input is
/// iterated through its selection view, the inner side compacts at the
/// density boundary, and each output batch of candidate pairs is
/// emitted *selected* — the condition marks the surviving pairs. A left
/// row whose pairs overflow one batch resumes in the next. One batch of
/// pairs can stand for a whole left batch times the inner side, so the
/// join polls cancel/deadline itself, once per output batch.
class NestedLoopJoin : public PhysOperator {
 public:
  NestedLoopJoin(const ExecContext& ctx, PhysOpPtr left, PhysOpPtr right,
                 ExprRef cond, std::vector<std::string> refs,
                 SharedInnerRows* shared = nullptr)
      : PhysOperator(std::move(refs)),
        evaluator_(ctx.catalog, ctx.store, ctx.methods,
                   ctx.property_cache, ctx.snapshot_epoch),
        left_(std::move(left)),
        right_(std::move(right)),
        cond_(std::move(cond)),
        cross_product_(cond_->kind() == ExprKind::kConst &&
                       cond_->value().is_bool() && cond_->value().AsBool()),
        shared_(shared),
        cancel_(ctx.cancel),
        deadline_(ctx.deadline) {
    for (const std::string& ref : refs_) {
      int li = left_->RefIndex(ref);
      from_left_.push_back(li);
      from_right_.push_back(li >= 0 ? -1 : right_->RefIndex(ref));
    }
  }

  Status Open() override {
    VODAK_RETURN_IF_ERROR(left_->Open());
    if (shared_ != nullptr) {
      // Inner side shared across worker clones: the call_once winner
      // drains its own copy of the subtree, everyone reads the result.
      std::call_once(shared_->once, [&] {
        shared_->status = MaterializeInner(&shared_->rows);
      });
      VODAK_RETURN_IF_ERROR(shared_->status);
      right_rows_ = &shared_->rows;
    } else {
      own_rows_.clear();
      VODAK_RETURN_IF_ERROR(MaterializeInner(&own_rows_));
      right_rows_ = &own_rows_;
    }
    left_batch_.Reset(0);
    left_pos_ = 0;
    right_pos_ = 0;
    left_done_ = false;
    return Status::OK();
  }

  Result<bool> NextBatch(RowBatch* batch) override {
    VmStats::operator_handoffs.fetch_add(1, std::memory_order_relaxed);
    const std::vector<Row>& inner = *right_rows_;
    while (!left_done_ && !inner.empty()) {
      VODAK_RETURN_IF_ERROR(CheckQueryAlive(cancel_, deadline_));
      batch->Reset(refs_.size());
      size_t n = 0;
      while (n < kDefaultBatchSize) {
        if (left_pos_ >= left_batch_.active_rows()) {
          VODAK_ASSIGN_OR_RETURN(bool more, left_->NextBatch(&left_batch_));
          if (!more) {
            left_done_ = true;
            break;
          }
          left_pos_ = 0;
        }
        // The current left row crossed with the next run of inner rows.
        const size_t l = left_batch_.RowAt(left_pos_);
        const size_t take =
            std::min(kDefaultBatchSize - n, inner.size() - right_pos_);
        for (size_t c = 0; c < refs_.size(); ++c) {
          std::vector<Value>& col = batch->column(c);
          if (from_left_[c] >= 0) {
            col.insert(col.end(), take,
                       left_batch_.column(from_left_[c])[l]);
          } else {
            for (size_t i = right_pos_; i < right_pos_ + take; ++i) {
              col.push_back(inner[i][from_right_[c]]);
            }
          }
        }
        n += take;
        right_pos_ += take;
        if (right_pos_ == inner.size()) {
          right_pos_ = 0;
          ++left_pos_;
        }
      }
      if (n == 0) break;
      batch->set_num_rows(n);
      if (!cross_product_) {
        VODAK_RETURN_IF_ERROR(evaluator_.EvalPredicateBatch(
            cond_, EnvOfBatch(refs_, *batch), &keep_));
        n = batch->IntersectSelection(keep_);
      }
      if (n > 0) {
        rows_produced_ += n;
        return true;
      }
    }
    batch->Reset(refs_.size());
    return false;
  }
  void Close() override {
    left_->Close();
    own_rows_.clear();
    left_batch_.Reset(0);
  }
  std::string name() const override { return "NestedLoopJoin"; }
  std::string params() const override { return cond_->ToString(); }
  const std::vector<const PhysOperator*> children() const override {
    return {left_.get(), right_.get()};
  }

 private:
  Status MaterializeInner(std::vector<Row>* out) {
    VODAK_RETURN_IF_ERROR(right_->Open());
    RowBatch build;
    Row row;
    for (;;) {
      VODAK_ASSIGN_OR_RETURN(bool more, right_->NextBatch(&build));
      if (!more) break;
      // Density boundary, as in the hash-join build.
      build.Compact();
      for (size_t r = 0; r < build.num_rows(); ++r) {
        build.CopyRowTo(r, &row);
        out->push_back(row);
      }
    }
    right_->Close();
    return Status::OK();
  }

  ExprEvaluator evaluator_;
  PhysOpPtr left_;
  PhysOpPtr right_;
  ExprRef cond_;
  bool cross_product_;  // constant TRUE condition: no evaluation
  SharedInnerRows* shared_;
  const CancellationToken* cancel_;
  Deadline deadline_;
  std::vector<Row> own_rows_;
  const std::vector<Row>* right_rows_ = nullptr;
  RowBatch left_batch_;
  size_t left_pos_ = 0;   // live-row index into left_batch_
  size_t right_pos_ = 0;  // next inner row for the current left row
  bool left_done_ = false;
  std::vector<int> from_left_;
  std::vector<int> from_right_;
  std::vector<char> keep_;
};

/// Hash join on key references; implements natural_join (keys = shared
/// references) and bare-variable equality joins. Density contract
/// (operator-contract table, docs/ARCHITECTURE.md §"Selection
/// vectors"): the build side is a density boundary — build batches are
/// Compact()ed before rows enter the table; the probe side is iterated
/// through its selection view; output batches are dense by
/// construction.
class HashJoin : public PhysOperator {
 public:
  HashJoin(PhysOpPtr left, PhysOpPtr right,
           std::vector<std::string> left_keys,
           std::vector<std::string> right_keys,
           std::vector<std::string> refs,
           SharedJoinBuild* shared = nullptr)
      : PhysOperator(std::move(refs)),
        left_(std::move(left)),
        right_(std::move(right)),
        left_keys_(std::move(left_keys)),
        right_keys_(std::move(right_keys)),
        shared_(shared) {
    for (const std::string& ref : refs_) {
      int li = left_->RefIndex(ref);
      int ri = right_->RefIndex(ref);
      from_left_.push_back(li);
      from_right_.push_back(li >= 0 ? -1 : ri);
    }
    for (const std::string& k : left_keys_) {
      left_key_idx_.push_back(left_->RefIndex(k));
    }
    for (const std::string& k : right_keys_) {
      right_key_idx_.push_back(right_->RefIndex(k));
    }
  }

  Status Open() override {
    own_table_.clear();
    table_ = nullptr;
    built_ = false;
    return left_->Open();
  }

  /// Drains the build (right) side into `out`.
  Status BuildInto(JoinTable* out) {
    VODAK_RETURN_IF_ERROR(right_->Open());
    RowBatch build;
    Row row;
    Row key;
    for (;;) {
      VODAK_ASSIGN_OR_RETURN(bool more, right_->NextBatch(&build));
      if (!more) break;
      // Density boundary: rows leave the batch representation for the
      // table, so the selected rows are gathered dense once here.
      build.Compact();
      for (size_t r = 0; r < build.num_rows(); ++r) {
        build.CopyRowTo(r, &row);
        key.clear();
        key.reserve(right_key_idx_.size());
        for (int i : right_key_idx_) key.push_back(row[i]);
        (*out)[key].push_back(row);
      }
    }
    right_->Close();
    return Status::OK();
  }

  /// Deferred build on the first NextBatch call. With a shared build,
  /// the call_once winner builds the table once from its own
  /// (deterministic) build subtree and every worker probes it
  /// read-only thereafter.
  Status BuildTable() {
    if (shared_ != nullptr) {
      std::call_once(shared_->once, [&] {
        shared_->status = BuildInto(&shared_->table);
      });
      VODAK_RETURN_IF_ERROR(shared_->status);
      table_ = &shared_->table;
    } else {
      VODAK_RETURN_IF_ERROR(BuildInto(&own_table_));
      table_ = &own_table_;
    }
    built_ = true;
    return Status::OK();
  }

  Result<bool> NextBatch(RowBatch* batch) override {
    VmStats::operator_handoffs.fetch_add(1, std::memory_order_relaxed);
    if (!built_) VODAK_RETURN_IF_ERROR(BuildTable());
    Row key;
    for (;;) {
      VODAK_ASSIGN_OR_RETURN(bool more, left_->NextBatch(&probe_batch_));
      if (!more) return false;
      batch->Reset(refs_.size());
      size_t out_rows = 0;
      // Probe only the live rows of the (possibly selected) probe batch;
      // the output batch is dense by construction.
      for (size_t pr = 0; pr < probe_batch_.active_rows(); ++pr) {
        const size_t r = probe_batch_.RowAt(pr);
        key.clear();
        key.reserve(left_key_idx_.size());
        for (int i : left_key_idx_) {
          key.push_back(probe_batch_.column(i)[r]);
        }
        auto it = table_->find(key);
        if (it == table_->end()) continue;
        for (const Row& right_row : it->second) {
          for (size_t c = 0; c < refs_.size(); ++c) {
            batch->column(c).push_back(
                from_left_[c] >= 0 ? probe_batch_.column(from_left_[c])[r]
                                   : right_row[from_right_[c]]);
          }
          ++out_rows;
        }
      }
      if (out_rows > 0) {
        batch->set_num_rows(out_rows);
        rows_produced_ += out_rows;
        return true;
      }
    }
  }
  void Close() override {
    left_->Close();
    own_table_.clear();
  }
  std::string name() const override { return "HashJoin"; }
  std::string params() const override {
    std::string out;
    for (size_t i = 0; i < left_keys_.size(); ++i) {
      if (i) out += ", ";
      out += left_keys_[i] + " == " + right_keys_[i];
    }
    return out;
  }
  const std::vector<const PhysOperator*> children() const override {
    return {left_.get(), right_.get()};
  }

 private:
  PhysOpPtr left_;
  PhysOpPtr right_;
  std::vector<std::string> left_keys_;
  std::vector<std::string> right_keys_;
  std::vector<int> left_key_idx_;
  std::vector<int> right_key_idx_;
  SharedJoinBuild* shared_;
  JoinTable own_table_;
  const JoinTable* table_ = nullptr;
  bool built_ = false;
  RowBatch probe_batch_;
  std::vector<int> from_left_;
  std::vector<int> from_right_;
};

/// Physical map<ref, expr>: appends one computed column. Density
/// contract (operator-contract table, docs/ARCHITECTURE.md §"Selection
/// vectors"): the child's selection passes through unchanged —
/// pass-through columns are moved wholesale, the expression is
/// evaluated only for the selected rows and its results scattered back
/// to the physical positions (unselected slots stay NULL and are never
/// read).
class MapOp : public PhysOperator {
 public:
  MapOp(const ExecContext& ctx, PhysOpPtr child, std::string ref,
        ExprRef expr, std::vector<std::string> refs)
      : PhysOperator(std::move(refs)),
        evaluator_(ctx.catalog, ctx.store, ctx.methods,
                   ctx.property_cache, ctx.snapshot_epoch),
        child_(std::move(child)),
        new_ref_(std::move(ref)),
        expr_(std::move(expr)) {
    out_index_ = RefIndex(new_ref_);
    for (const std::string& r : refs_) {
      child_index_.push_back(child_->RefIndex(r));
    }
  }

  Status Open() override { return child_->Open(); }
  Result<bool> NextBatch(RowBatch* batch) override {
    VmStats::operator_handoffs.fetch_add(1, std::memory_order_relaxed);
    VODAK_ASSIGN_OR_RETURN(bool more, child_->NextBatch(&child_batch_));
    if (!more) return false;
    const size_t n = child_batch_.num_rows();
    const size_t active = child_batch_.active_rows();
    BatchEnv env = EnvOfBatch(child_->refs(), child_batch_);
    // One computed value per *live* row; under a selection the results
    // are scattered back to their physical positions below.
    VODAK_ASSIGN_OR_RETURN(ValueColumn computed,
                           evaluator_.EvalBatch(expr_, env));
    if (child_batch_.has_selection()) {
      ValueColumn scattered(n);  // unselected slots stay NULL, never read
      for (size_t i = 0; i < active; ++i) {
        scattered[child_batch_.RowAt(i)] = std::move(computed[i]);
      }
      computed = std::move(scattered);
    }
    batch->Reset(refs_.size());
    for (size_t c = 0; c < refs_.size(); ++c) {
      if (static_cast<int>(c) == out_index_) {
        batch->column(c) = std::move(computed);
      } else if (child_index_[c] >= 0) {
        batch->column(c) = std::move(child_batch_.column(child_index_[c]));
      } else {
        batch->column(c).assign(n, Value::Null());
      }
    }
    batch->set_num_rows(n);
    if (child_batch_.has_selection()) {
      // The child's live rows are consumed above; transplant its
      // selection rather than copying it (the child Reset()s on its
      // next NextBatch anyway).
      batch->SetSelection(child_batch_.TakeSelection());
    }
    rows_produced_ += active;
    return true;
  }
  void Close() override { child_->Close(); }
  std::string name() const override { return "Map"; }
  std::string params() const override {
    return new_ref_ + " := " + expr_->ToString();
  }
  const std::vector<const PhysOperator*> children() const override {
    return {child_.get()};
  }

 private:
  ExprEvaluator evaluator_;
  PhysOpPtr child_;
  std::string new_ref_;
  ExprRef expr_;
  int out_index_ = -1;
  std::vector<int> child_index_;
  RowBatch child_batch_;
};

/// Physical flat<ref, expr>: one output row per element of the
/// set-valued expression. Density contract (operator-contract table,
/// docs/ARCHITECTURE.md §"Selection vectors"): only the child's
/// selected rows fan out; the output batch is dense by construction
/// (the fan-out builds fresh columns anyway).
class FlatOp : public PhysOperator {
 public:
  FlatOp(const ExecContext& ctx, PhysOpPtr child, std::string ref,
         ExprRef expr, std::vector<std::string> refs)
      : PhysOperator(std::move(refs)),
        evaluator_(ctx.catalog, ctx.store, ctx.methods,
                   ctx.property_cache, ctx.snapshot_epoch),
        child_(std::move(child)),
        new_ref_(std::move(ref)),
        expr_(std::move(expr)) {
    out_index_ = RefIndex(new_ref_);
    for (const std::string& r : refs_) {
      child_index_.push_back(child_->RefIndex(r));
    }
  }

  Status Open() override { return child_->Open(); }
  Result<bool> NextBatch(RowBatch* batch) override {
    VmStats::operator_handoffs.fetch_add(1, std::memory_order_relaxed);
    for (;;) {
      VODAK_ASSIGN_OR_RETURN(bool more, child_->NextBatch(&child_batch_));
      if (!more) return false;
      const size_t active = child_batch_.active_rows();
      BatchEnv env = EnvOfBatch(child_->refs(), child_batch_);
      // One set per live row (sets[i] belongs to physical row RowAt(i)).
      VODAK_ASSIGN_OR_RETURN(ValueColumn sets,
                             evaluator_.EvalBatch(expr_, env));
      batch->Reset(refs_.size());
      size_t out_rows = 0;
      for (size_t i = 0; i < active; ++i) {
        const size_t r = child_batch_.RowAt(i);
        if (sets[i].is_null()) continue;
        if (!sets[i].is_set()) {
          return Status::ExecError(
              "flat expression evaluated to non-set " +
              sets[i].ToString());
        }
        for (const Value& elem : sets[i].AsSet()) {
          for (size_t c = 0; c < refs_.size(); ++c) {
            if (static_cast<int>(c) == out_index_) {
              batch->column(c).push_back(elem);
            } else if (child_index_[c] >= 0) {
              batch->column(c).push_back(
                  child_batch_.column(child_index_[c])[r]);
            } else {
              batch->column(c).push_back(Value::Null());
            }
          }
          ++out_rows;
        }
      }
      if (out_rows > 0) {
        batch->set_num_rows(out_rows);
        rows_produced_ += out_rows;
        return true;
      }
    }
  }
  void Close() override { child_->Close(); }
  std::string name() const override { return "Flatten"; }
  std::string params() const override {
    return new_ref_ + " IN " + expr_->ToString();
  }
  const std::vector<const PhysOperator*> children() const override {
    return {child_.get()};
  }

 private:
  ExprEvaluator evaluator_;
  PhysOpPtr child_;
  std::string new_ref_;
  ExprRef expr_;
  int out_index_ = -1;
  std::vector<int> child_index_;
  RowBatch child_batch_;
};

/// Physical project with set-semantics duplicate elimination. Density
/// contract (operator-contract table, docs/ARCHITECTURE.md §"Selection
/// vectors"): only the child's selected rows are projected into the
/// dedup set; the output batch is dense by construction.
class ProjectDedup : public PhysOperator {
 public:
  ProjectDedup(PhysOpPtr child, std::vector<std::string> refs)
      : PhysOperator(std::move(refs)), child_(std::move(child)) {
    for (const std::string& r : refs_) {
      child_index_.push_back(child_->RefIndex(r));
    }
  }

  Status Open() override {
    seen_.clear();
    return child_->Open();
  }
  Result<bool> NextBatch(RowBatch* batch) override {
    VmStats::operator_handoffs.fetch_add(1, std::memory_order_relaxed);
    Row projected;
    for (;;) {
      VODAK_ASSIGN_OR_RETURN(bool more, child_->NextBatch(&child_batch_));
      if (!more) return false;
      batch->Reset(refs_.size());
      size_t out_rows = 0;
      for (size_t i = 0; i < child_batch_.active_rows(); ++i) {
        const size_t r = child_batch_.RowAt(i);
        projected.resize(refs_.size());
        for (size_t c = 0; c < refs_.size(); ++c) {
          projected[c] = child_batch_.column(child_index_[c])[r];
        }
        if (seen_.insert(projected).second) {
          batch->AppendRow(projected);
          ++out_rows;
        }
      }
      if (out_rows > 0) {
        rows_produced_ += out_rows;
        return true;
      }
    }
  }
  void Close() override {
    child_->Close();
    seen_.clear();
  }
  std::string name() const override { return "Project"; }
  std::string params() const override { return Join(refs_, ", "); }
  const std::vector<const PhysOperator*> children() const override {
    return {child_.get()};
  }

 private:
  PhysOpPtr child_;
  std::vector<int> child_index_;
  std::unordered_set<Row, RowHash, RowEq> seen_;
  RowBatch child_batch_;
};

/// union / diff with set semantics; the right side is materialized into
/// a set in Open. Density contract (operator-contract table,
/// docs/ARCHITECTURE.md §"Selection vectors"): both inputs are read
/// through their selection views; output batches are dense — first the
/// new left rows that qualify (union: all, difference: those not in the
/// right set), then, for a union, the right rows not yet emitted.
class SetOp : public PhysOperator {
 public:
  SetOp(PhysOpPtr left, PhysOpPtr right, bool is_union,
        std::vector<std::string> refs)
      : PhysOperator(std::move(refs)),
        left_(std::move(left)),
        right_(std::move(right)),
        is_union_(is_union) {
    for (const std::string& r : refs_) {
      left_index_.push_back(left_->RefIndex(r));
      right_index_.push_back(right_->RefIndex(r));
    }
  }

  Status Open() override {
    right_set_.clear();
    emitted_.clear();
    VODAK_RETURN_IF_ERROR(right_->Open());
    for (;;) {
      VODAK_ASSIGN_OR_RETURN(bool more, right_->NextBatch(&input_));
      if (!more) break;
      for (size_t i = 0; i < input_.active_rows(); ++i) {
        right_set_.insert(Aligned(input_, input_.RowAt(i), right_index_));
      }
    }
    right_->Close();
    right_it_ = right_set_.begin();
    left_done_ = false;
    return left_->Open();
  }

  Result<bool> NextBatch(RowBatch* batch) override {
    VmStats::operator_handoffs.fetch_add(1, std::memory_order_relaxed);
    batch->Reset(refs_.size());
    while (!left_done_) {
      VODAK_ASSIGN_OR_RETURN(bool more, left_->NextBatch(&input_));
      if (!more) {
        left_done_ = true;
        break;
      }
      for (size_t i = 0; i < input_.active_rows(); ++i) {
        Row row = Aligned(input_, input_.RowAt(i), left_index_);
        if (!is_union_ && right_set_.count(row) > 0) continue;
        if (emitted_.insert(row).second) batch->AppendRow(row);
      }
      if (!batch->empty()) break;
    }
    while (left_done_ && is_union_ && right_it_ != right_set_.end() &&
           batch->num_rows() < kDefaultBatchSize) {
      if (emitted_.insert(*right_it_).second) batch->AppendRow(*right_it_);
      ++right_it_;
    }
    rows_produced_ += batch->num_rows();
    return !batch->empty();
  }
  void Close() override {
    left_->Close();
    right_set_.clear();
    emitted_.clear();
    input_.Reset(0);
  }
  std::string name() const override {
    return is_union_ ? "Union" : "Difference";
  }
  const std::vector<const PhysOperator*> children() const override {
    return {left_.get(), right_.get()};
  }

 private:
  /// Physical row `r` of `batch`, reordered into this operator's refs.
  Row Aligned(const RowBatch& batch, size_t r,
              const std::vector<int>& index) const {
    Row row(refs_.size());
    for (size_t c = 0; c < refs_.size(); ++c) {
      row[c] = batch.column(index[c])[r];
    }
    return row;
  }

  PhysOpPtr left_;
  PhysOpPtr right_;
  bool is_union_;
  std::vector<int> left_index_;
  std::vector<int> right_index_;
  std::unordered_set<Row, RowHash, RowEq> right_set_;
  std::unordered_set<Row, RowHash, RowEq> emitted_;
  std::unordered_set<Row, RowHash, RowEq>::iterator right_it_;
  bool left_done_ = false;
  RowBatch input_;
};

/// Sargable predicates visible at each scan leaf, keyed by leaf node
/// identity: the kSelect conjuncts above the leaf on a pushdown-safe
/// path, classified by exec/sargable.h against the leaf's scan
/// variable. Pushing a single-variable compare below map/flat/project
/// and to either side of join/natural-join/union is sound (a row the
/// predicate refutes can only produce output rows the select above
/// would drop); the right side of a difference is NOT — skipping rows
/// there would *grow* the result — so it restarts with no pending
/// predicates.
using LeafPredMap =
    std::map<const LogicalNode*, std::vector<storage::SlotPredicate>>;

void CollectLeafPreds(const LogicalRef& plan, const Catalog& catalog,
                      std::vector<ExprRef> pending, LeafPredMap* out) {
  switch (plan->op()) {
    case LogicalOp::kSelect:
      pending.push_back(plan->expr());
      CollectLeafPreds(plan->input(0), catalog, std::move(pending), out);
      return;
    case LogicalOp::kMap:
    case LogicalOp::kFlat:
    case LogicalOp::kProject:
      CollectLeafPreds(plan->input(0), catalog, std::move(pending), out);
      return;
    case LogicalOp::kJoin:
    case LogicalOp::kNaturalJoin:
    case LogicalOp::kUnion:
      CollectLeafPreds(plan->input(0), catalog, pending, out);
      CollectLeafPreds(plan->input(1), catalog, std::move(pending), out);
      return;
    case LogicalOp::kDiff:
      CollectLeafPreds(plan->input(0), catalog, std::move(pending), out);
      CollectLeafPreds(plan->input(1), catalog, {}, out);
      return;
    case LogicalOp::kGet: {
      const ClassDef* cls = catalog.FindClass(plan->class_name());
      if (cls == nullptr) return;  // surfaced as PlanError at build
      std::vector<storage::SlotPredicate>& preds = (*out)[plan.get()];
      for (const ExprRef& cond : pending) {
        std::vector<storage::SlotPredicate> got =
            CollectSargablePredicates(cond, plan->ref(), *cls);
        preds.insert(preds.end(), got.begin(), got.end());
      }
      return;
    }
    case LogicalOp::kExprSource:
    case LogicalOp::kGroupRef:
      return;
  }
}

const std::vector<storage::SlotPredicate> kNoPreds;

const std::vector<storage::SlotPredicate>& LeafPredsFor(
    const LeafPredMap* map, const LogicalNode* leaf) {
  if (map == nullptr) return kNoPreds;
  auto it = map->find(leaf);
  return it == map->end() ? kNoPreds : it->second;
}

/// Shared plan builder. With a null `state` this is the serial
/// BuildPhysical; with a ParallelPlanState it builds one worker's clone:
/// the driving leaf becomes a MorselScan over the shared cursor and
/// joins attach to their pre-created shared build slots.
Result<PhysOpPtr> BuildPhysicalImpl(const LogicalRef& plan,
                                    const ExecContext& ctx,
                                    ParallelPlanState* state,
                                    const LeafPredMap* leaf_preds) {
  switch (plan->op()) {
    case LogicalOp::kGet:
    case LogicalOp::kExprSource: {
      BatchSourcePtr source;
      if (state != nullptr && plan.get() == state->driving_leaf) {
        source = std::make_unique<MorselBatchSource>(
            plan->op() == LogicalOp::kGet ? plan->class_name()
                                          : plan->expr()->ToString(),
            state);
      } else {
        VODAK_ASSIGN_OR_RETURN(
            source, MakeLeafBatchSource(*plan, ctx,
                                        &LeafPredsFor(leaf_preds,
                                                      plan.get())));
      }
      return PhysOpPtr(new ScanOp(ctx, plan->ref(), std::move(source)));
    }
    case LogicalOp::kSelect: {
      VODAK_ASSIGN_OR_RETURN(
          PhysOpPtr child,
          BuildPhysicalImpl(plan->input(0), ctx, state, leaf_preds));
      return PhysOpPtr(new Filter(ctx, std::move(child), plan->expr()));
    }
    case LogicalOp::kJoin: {
      VODAK_ASSIGN_OR_RETURN(
          PhysOpPtr left,
          BuildPhysicalImpl(plan->input(0), ctx, state, leaf_preds));
      VODAK_ASSIGN_OR_RETURN(
          PhysOpPtr right,
          BuildPhysicalImpl(plan->input(1), ctx, state, leaf_preds));
      const ExprRef& cond = plan->expr();
      // Bare-variable equality spanning both sides → hash join (the
      // deterministic algorithm choice shared with the cost model).
      if (cond->kind() == ExprKind::kBinary &&
          cond->bin_op() == BinOp::kEq &&
          cond->lhs()->kind() == ExprKind::kVar &&
          cond->rhs()->kind() == ExprKind::kVar) {
        std::string a = cond->lhs()->var_name();
        std::string b = cond->rhs()->var_name();
        if (plan->input(0)->HasRef(b)) std::swap(a, b);
        if (plan->input(0)->HasRef(a) && plan->input(1)->HasRef(b)) {
          return PhysOpPtr(new HashJoin(
              std::move(left), std::move(right), {a}, {b}, RefsOf(plan),
              state == nullptr ? nullptr
                               : &state->hash_builds.at(plan.get())));
        }
      }
      return PhysOpPtr(new NestedLoopJoin(
          ctx, std::move(left), std::move(right), cond, RefsOf(plan),
          state == nullptr ? nullptr
                           : &state->inner_rows.at(plan.get())));
    }
    case LogicalOp::kNaturalJoin: {
      VODAK_ASSIGN_OR_RETURN(PhysOpPtr left,
                             BuildPhysicalImpl(plan->input(0), ctx, state, leaf_preds));
      VODAK_ASSIGN_OR_RETURN(PhysOpPtr right,
                             BuildPhysicalImpl(plan->input(1), ctx, state, leaf_preds));
      std::vector<std::string> shared;
      for (const auto& [ref, type] : plan->input(0)->schema()) {
        if (plan->input(1)->HasRef(ref)) shared.push_back(ref);
      }
      return PhysOpPtr(new HashJoin(
          std::move(left), std::move(right), shared, shared, RefsOf(plan),
          state == nullptr ? nullptr
                           : &state->hash_builds.at(plan.get())));
    }
    case LogicalOp::kUnion:
    case LogicalOp::kDiff: {
      VODAK_ASSIGN_OR_RETURN(PhysOpPtr left,
                             BuildPhysicalImpl(plan->input(0), ctx, state, leaf_preds));
      VODAK_ASSIGN_OR_RETURN(PhysOpPtr right,
                             BuildPhysicalImpl(plan->input(1), ctx, state, leaf_preds));
      return PhysOpPtr(new SetOp(std::move(left), std::move(right),
                                 plan->op() == LogicalOp::kUnion,
                                 RefsOf(plan)));
    }
    case LogicalOp::kMap: {
      VODAK_ASSIGN_OR_RETURN(PhysOpPtr child,
                             BuildPhysicalImpl(plan->input(0), ctx, state, leaf_preds));
      return PhysOpPtr(new MapOp(ctx, std::move(child), plan->ref(),
                                 plan->expr(), RefsOf(plan)));
    }
    case LogicalOp::kFlat: {
      VODAK_ASSIGN_OR_RETURN(PhysOpPtr child,
                             BuildPhysicalImpl(plan->input(0), ctx, state, leaf_preds));
      return PhysOpPtr(new FlatOp(ctx, std::move(child), plan->ref(),
                                  plan->expr(), RefsOf(plan)));
    }
    case LogicalOp::kProject: {
      VODAK_ASSIGN_OR_RETURN(PhysOpPtr child,
                             BuildPhysicalImpl(plan->input(0), ctx, state, leaf_preds));
      return PhysOpPtr(
          new ProjectDedup(std::move(child), plan->projection()));
    }
    case LogicalOp::kGroupRef:
      return Status::PlanError(
          "group placeholder in executable plan (optimizer bug)");
  }
  return Status::Internal("unreachable logical op in plan builder");
}

/// Occurrences of `target` in the plan DAG. The driving leaf must occur
/// exactly once: a shared subtree node reached through another path
/// would wrongly read from the same morsel cursor.
size_t CountOccurrences(const LogicalRef& plan,
                        const algebra::LogicalNode* target) {
  size_t n = plan.get() == target ? 1 : 0;
  for (const LogicalRef& input : plan->inputs()) {
    n += CountOccurrences(input, target);
  }
  return n;
}

/// Pre-creates the shared build slots for every join node in the plan,
/// so worker-side construction only ever reads the maps.
void CreateSharedJoinSlots(const LogicalRef& plan,
                           ParallelPlanState* state) {
  if (plan->op() == LogicalOp::kJoin ||
      plan->op() == LogicalOp::kNaturalJoin) {
    state->hash_builds[plan.get()];
    state->inner_rows[plan.get()];
  }
  for (const LogicalRef& input : plan->inputs()) {
    CreateSharedJoinSlots(input, state);
  }
}

}  // namespace

Result<PhysOpPtr> BuildPhysical(const LogicalRef& plan,
                                const ExecContext& ctx) {
  LeafPredMap leaf_preds;
  CollectLeafPreds(plan, *ctx.catalog, {}, &leaf_preds);
  return BuildPhysicalImpl(plan, ctx, /*state=*/nullptr, &leaf_preds);
}

Result<BatchSourcePtr> MakeLeafBatchSource(
    const LogicalNode& leaf, const ExecContext& ctx,
    const std::vector<storage::SlotPredicate>* preds) {
  const std::vector<storage::SlotPredicate>& leaf_preds =
      preds == nullptr ? kNoPreds : *preds;
  switch (leaf.op()) {
    case LogicalOp::kGet: {
      const ClassDef* cls = ctx.catalog->FindClass(leaf.class_name());
      if (cls == nullptr) {
        return Status::PlanError("unknown class '" + leaf.class_name() +
                                 "'");
      }
      if (ctx.shared_scans != nullptr) {
        return BatchSourcePtr(std::make_unique<SharedBatchSource>(
            ctx, leaf.class_name(), cls->class_id(), leaf_preds));
      }
      storage::SegmentVersionRef version =
          ctx.segments == nullptr
              ? nullptr
              : ctx.segments->VersionAt(cls->class_id(),
                                        ctx.snapshot_epoch);
      if (version != nullptr) {
        return BatchSourcePtr(std::make_unique<SegmentBatchSource>(
            ctx, leaf.class_name(), cls->class_id(), std::move(version),
            leaf_preds));
      }
      return BatchSourcePtr(std::make_unique<ExtentBatchSource>(
          ctx, leaf.class_name(), cls->class_id()));
    }
    case LogicalOp::kExprSource: {
      if (ctx.shared_scans != nullptr) {
        return BatchSourcePtr(
            std::make_unique<SharedBatchSource>(ctx, leaf.expr()));
      }
      return BatchSourcePtr(
          std::make_unique<ExprBatchSource>(ctx, leaf.expr()));
    }
    default:
      return Status::PlanError("logical node '" +
                               std::string(LogicalOpName(leaf.op())) +
                               "' is not a scan leaf");
  }
}

Result<PhysOpPtr> BuildPhysicalWorker(const LogicalRef& plan,
                                      const ExecContext& ctx,
                                      const ParallelPlanStatePtr& state) {
  if (state == nullptr) {
    return Status::Internal("BuildPhysicalWorker without plan state");
  }
  LeafPredMap leaf_preds;
  CollectLeafPreds(plan, *ctx.catalog, {}, &leaf_preds);
  return BuildPhysicalImpl(plan, ctx, state.get(), &leaf_preds);
}

Result<ParallelPlanStatePtr> PrepareParallelPlan(const LogicalRef& plan,
                                                 const ExecContext& ctx,
                                                 size_t threads,
                                                 size_t max_morsel_size) {
  auto state = std::make_shared<ParallelPlanState>();

  // Walk the driving path: the input(0) chain from the root. Joins
  // drive through their probe (outer) side; set operators interleave
  // their own right-side emission with the left drain and stay serial.
  const LogicalNode* node = plan.get();
  for (bool at_leaf = false; !at_leaf;) {
    switch (node->op()) {
      case LogicalOp::kSelect:
      case LogicalOp::kMap:
      case LogicalOp::kFlat:
      case LogicalOp::kJoin:
      case LogicalOp::kNaturalJoin:
        node = node->input(0).get();
        break;
      case LogicalOp::kProject:
        // Workers dedup locally; the driver must dedup the merge.
        state->needs_final_dedup = true;
        node = node->input(0).get();
        break;
      case LogicalOp::kGet:
      case LogicalOp::kExprSource:
        at_leaf = true;
        break;
      case LogicalOp::kUnion:
      case LogicalOp::kDiff:
      case LogicalOp::kGroupRef:
        return ParallelPlanStatePtr();  // serial fallback
    }
  }

  if (CountOccurrences(plan, node) != 1) {
    return ParallelPlanStatePtr();  // shared leaf subtree: stay serial
  }

  // Materialize the driving scan once, exactly like the serial leaf's
  // Open() would (same stats, same errors).
  state->driving_leaf = node;
  if (node->op() == LogicalOp::kGet) {
    const ClassDef* cls = ctx.catalog->FindClass(node->class_name());
    if (cls == nullptr) {
      return Status::PlanError("unknown class '" + node->class_name() +
                               "'");
    }
    const storage::SegmentVersionRef version =
        ctx.segments == nullptr
            ? nullptr
            : ctx.segments->VersionAt(cls->class_id(), ctx.snapshot_epoch);
    if (version != nullptr) {
      // Segment-backed: zone-map pruning happens here, before the
      // morsel cursor is sized, so refuted segments never become
      // morsels and every worker clone shares the savings.
      LeafPredMap leaf_preds;
      CollectLeafPreds(plan, *ctx.catalog, {}, &leaf_preds);
      state->segment_backed = true;
      VODAK_ASSIGN_OR_RETURN(
          state->extent,
          ctx.segments->ReadOids(*version, LeafPredsFor(&leaf_preds, node),
                                 &state->pruning));
      ctx.segments->NotePruning(state->pruning.scanned,
                                state->pruning.skipped);
    } else {
      VODAK_ASSIGN_OR_RETURN(state->extent,
                             ctx.store->Extent(cls->class_id(),
                                               ctx.snapshot_epoch));
    }
    state->leaf_is_extent = true;
  } else {
    ExprEvaluator evaluator(ctx.catalog, ctx.store, ctx.methods,
                            ctx.property_cache, ctx.snapshot_epoch);
    VODAK_ASSIGN_OR_RETURN(Value set, evaluator.EvalClosed(node->expr()));
    if (set.is_null()) {
      state->elements.clear();
    } else if (set.is_set()) {
      state->elements = set.AsSet();
    } else {
      return Status::ExecError("expr_source evaluated to non-set " +
                               set.ToString());
    }
  }

  const size_t total = state->driving_total();
  state->morsels.Reset(
      total, BalancedMorselSize(total, threads, max_morsel_size));

  CreateSharedJoinSlots(plan, state.get());
  return state;
}

Result<Value> ExecuteToSet(PhysOperator* root) {
  VODAK_RETURN_IF_ERROR(root->Open());
  std::vector<Value> tuples;
  const std::vector<std::string>& refs = root->refs();
  RowBatch batch;
  for (;;) {
    VODAK_ASSIGN_OR_RETURN(bool more, root->NextBatch(&batch));
    if (!more) break;
    // Final set emit is a density boundary: every column crosses into
    // the tuple representation, so the selected rows compact once.
    batch.Compact();
    for (size_t r = 0; r < batch.num_rows(); ++r) {
      ValueTuple fields;
      fields.reserve(refs.size());
      for (size_t c = 0; c < refs.size(); ++c) {
        fields.emplace_back(refs[c], batch.column(c)[r]);
      }
      tuples.push_back(Value::Tuple(std::move(fields)));
    }
  }
  root->Close();
  return Value::Set(std::move(tuples));
}

Result<Value> ExecuteColumn(PhysOperator* root, const std::string& ref) {
  int index = root->RefIndex(ref);
  if (index < 0) {
    return Status::PlanError("result reference '" + ref +
                             "' not produced by plan");
  }
  VODAK_RETURN_IF_ERROR(root->Open());
  std::vector<Value> values;
  RowBatch batch;
  for (;;) {
    VODAK_ASSIGN_OR_RETURN(bool more, root->NextBatch(&batch));
    if (!more) break;
    // Single-column extraction reads through the selection view — no
    // reason to compact every column to consume one.
    auto& col = batch.column(index);
    for (size_t i = 0; i < batch.active_rows(); ++i) {
      values.push_back(std::move(col[batch.RowAt(i)]));
    }
  }
  root->Close();
  return Value::Set(std::move(values));
}

namespace {

void DecomposeRec(const ExprRef& expr, int* counter, std::string* out,
                  std::string* result_reg) {
  switch (expr->kind()) {
    case ExprKind::kConst:
      *result_reg = expr->value().ToString();
      return;
    case ExprKind::kVar:
      *result_reg = expr->var_name();
      return;
    case ExprKind::kProperty: {
      std::string base;
      DecomposeRec(expr->base(), counter, out, &base);
      *result_reg = "t" + std::to_string(++*counter);
      *out += "map_property<" + *result_reg + ", " + expr->name() + ", " +
              base + ">; ";
      return;
    }
    case ExprKind::kMethodCall: {
      std::string base;
      DecomposeRec(expr->base(), counter, out, &base);
      std::vector<std::string> args;
      for (const auto& arg : expr->args()) {
        std::string reg;
        DecomposeRec(arg, counter, out, &reg);
        args.push_back(reg);
      }
      *result_reg = "t" + std::to_string(++*counter);
      *out += "map_method<" + *result_reg + ", " + expr->method() + ", " +
              base;
      for (const auto& a : args) *out += ", " + a;
      *out += ">; ";
      return;
    }
    case ExprKind::kClassMethodCall: {
      std::vector<std::string> args;
      for (const auto& arg : expr->args()) {
        std::string reg;
        DecomposeRec(arg, counter, out, &reg);
        args.push_back(reg);
      }
      *result_reg = "t" + std::to_string(++*counter);
      *out += "method_get<" + *result_reg + ", " + expr->name() + ", " +
              expr->method();
      for (const auto& a : args) *out += ", " + a;
      *out += ">; ";
      return;
    }
    case ExprKind::kBinary: {
      std::string lhs;
      std::string rhs;
      DecomposeRec(expr->lhs(), counter, out, &lhs);
      DecomposeRec(expr->rhs(), counter, out, &rhs);
      *result_reg = "t" + std::to_string(++*counter);
      *out += "map_operator<" + *result_reg + ", " +
              BinOpName(expr->bin_op()) + ", " + lhs + ", " + rhs + ">; ";
      return;
    }
    case ExprKind::kUnary: {
      std::string operand;
      DecomposeRec(expr->operand(), counter, out, &operand);
      *result_reg = "t" + std::to_string(++*counter);
      *out += "map_operator<" + *result_reg + ", " +
              (expr->un_op() == UnOp::kNot ? "NOT" : "NEG") + ", " +
              operand + ">; ";
      return;
    }
    case ExprKind::kTupleCtor: {
      std::vector<std::string> args;
      for (const auto& [name, fe] : expr->fields()) {
        std::string reg;
        DecomposeRec(fe, counter, out, &reg);
        args.push_back(name + ": " + reg);
      }
      *result_reg = "t" + std::to_string(++*counter);
      *out += "map_operator<" + *result_reg + ", TUPLE";
      for (const auto& a : args) *out += ", " + a;
      *out += ">; ";
      return;
    }
    case ExprKind::kSetCtor: {
      std::vector<std::string> args;
      for (const auto& el : expr->args()) {
        std::string reg;
        DecomposeRec(el, counter, out, &reg);
        args.push_back(reg);
      }
      *result_reg = "t" + std::to_string(++*counter);
      *out += "map_operator<" + *result_reg + ", SET";
      for (const auto& a : args) *out += ", " + a;
      *out += ">; ";
      return;
    }
  }
}

void ExplainRec(const PhysOperator& op, int indent, std::string* out) {
  out->append(static_cast<size_t>(indent) * 2, ' ');
  *out += op.name();
  std::string params = op.params();
  if (!params.empty()) *out += "(" + params + ")";
  *out += "\n";
  for (const PhysOperator* child : op.children()) {
    ExplainRec(*child, indent + 1, out);
  }
}

}  // namespace

std::string DecomposeToRestrictedOps(const ExprRef& expr) {
  std::string out;
  std::string result;
  int counter = 0;
  DecomposeRec(expr, &counter, &out, &result);
  if (out.empty()) return "atom " + result;
  // Trim trailing "; ".
  out.resize(out.size() - 2);
  return out;
}

std::string ExplainPhysical(const PhysOperator& root) {
  std::string out;
  ExplainRec(root, 0, &out);
  return out;
}

}  // namespace exec
}  // namespace vodak
