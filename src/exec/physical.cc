#include "exec/physical.h"

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "common/string_util.h"
#include "common/vm_stats.h"
#include "exec/row_hash.h"
#include "exec/sargable.h"

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

/// Abstract supplier of a leaf scan's rows: one column of values,
/// delivered batch-at-a-time. Scan leaves are one generic operator
/// (`ScanOp` below) constructed against this interface, so the
/// same leaf runs over an extent, segment or method-scan cursor — the
/// executor above the leaf cannot tell them apart.
class BatchSource {
 public:
  virtual ~BatchSource() = default;

  /// (Re)starts a full pass over the source; extent and method-scan
  /// sources materialize here (the scan-pass cost).
  virtual Status Open() = 0;
  /// Emits the next (dense, single-column) batch; false at end of the
  /// pass, persistently.
  virtual Result<bool> NextBatch(RowBatch* batch) = 0;
  virtual void Close() = 0;

  /// EXPLAIN operator name ("ExtentScan", "MethodScan", "SegmentScan")
  /// and source description (class or expression).
  virtual std::string name() const = 0;
  virtual std::string describe() const = 0;
  /// Uniform EXPLAIN source annotation, appended to the leaf operator's
  /// params: every source kind prints `[source: <kind>]`, and
  /// segment-pruned kinds add `[segments: scanned S / skipped K]`.
  virtual std::string annotation() const = 0;
};

using BatchSourcePtr = std::unique_ptr<BatchSource>;

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

// Row hashing/equality: exec/row_hash.h.
using JoinTable = std::unordered_map<Row, std::vector<Row>, RowHash, RowEq>;

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
      : evaluator_(ctx.catalog, ctx.store, ctx.methods, ctx.snapshot_epoch),
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

/// Paged segment cursor: streams a class extent segment-by-segment
/// through the pager's buffer cache, skipping segments whose zone maps
/// refute the query's sargable predicates (docs/ARCHITECTURE.md
/// §"Paged storage & segment skipping"). The survivor partition is
/// computed at construction — EXPLAIN renders before Open, and the
/// prospective counts are exactly what a drain will do. The store's
/// pruning totals are bumped on the first Open only: a leaf that is
/// built but never drained counts nothing, and a re-Open counts
/// nothing again.
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
/// cursor actually feeds it — extent, segment or method scan — is
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
    // Every NextBatch entry counts one virtual batch hand-off
    // (perfbench's exec.operator_handoffs_per_read).
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

/// One conjunct of a Filter, in evaluation order.
struct FilterStep {
  ExprRef cond;
  /// A conjunct split out of an `AND` that is not a compare: like the
  /// connective, it must evaluate to a boolean (NIL is a TypeError,
  /// not FALSE). Compares are always boolean.
  bool strict = false;
  /// Index into Filter::operands_ when `cond` compares a shared operand
  /// against a constant (`compare` is then its classified shape); -1
  /// for a conjunct evaluated as an expression.
  int operand = -1;
  SargableCompare compare;
};

/// Appends the top-level AND conjuncts of `cond`, left to right — the
/// order masked AND evaluation visits them.
void FlattenAnd(const ExprRef& cond, std::vector<ExprRef>* out) {
  if (cond->kind() == ExprKind::kBinary && cond->bin_op() == BinOp::kAnd) {
    FlattenAnd(cond->lhs(), out);
    FlattenAnd(cond->rhs(), out);
    return;
  }
  out->push_back(cond);
}

/// Physical select over a run of stacked logical selects. The run's
/// conditions (lowest select first) and each condition's top-level AND
/// conjuncts become one ordered list of steps; every step narrows the
/// batch's selection, so each conjunct runs only on the rows all
/// earlier ones kept, exactly as one Filter per select would. What the
/// merge adds: a one-hop property (`p.number`) that two or more
/// compares test against constants is read once per batch — at its
/// first compare — and the later compares reuse that column (rows only
/// ever narrow, so each row a later compare sees was read).
/// `p.number >= 1 AND p.number <= 2` reads p.number once per row, not
/// once plus once per survivor. EXPLAIN lists such operands as
/// `[reads once: ...]`. (A bare variable needs no read: every step
/// borrows the batch's own column.)
///
/// Density contract (operator-contract table, docs/ARCHITECTURE.md
/// §"Selection vectors"): accepts selected or dense batches, emits
/// *selected* batches — survivors are marked in the selection vector,
/// never moved.
class Filter : public PhysOperator {
 public:
  Filter(const ExecContext& ctx, PhysOpPtr child,
         const std::vector<ExprRef>& conds)
      : PhysOperator(child->refs()),
        evaluator_(ctx.catalog, ctx.store, ctx.methods, ctx.snapshot_epoch),
        child_(std::move(child)),
        conds_(conds) {
    // Steps of one-hop property compares, by property operand text.
    std::map<std::string, std::vector<size_t>> compares;
    for (const ExprRef& cond : conds_) {
      std::vector<ExprRef> conjuncts;
      FlattenAnd(cond, &conjuncts);
      for (ExprRef& conjunct : conjuncts) {
        FilterStep step;
        step.strict = conjuncts.size() > 1 &&
                      !(conjunct->kind() == ExprKind::kBinary &&
                        ExprEvaluator::IsLowerableCompare(conjunct->bin_op()));
        std::optional<SargableCompare> cmp =
            ClassifySargableCompare(conjunct);
        if (cmp && cmp->operand->kind() == ExprKind::kProperty &&
            cmp->operand->base()->kind() == ExprKind::kVar) {
          compares[cmp->operand->ToString()].push_back(steps_.size());
          step.compare = std::move(*cmp);
        }
        step.cond = std::move(conjunct);
        steps_.push_back(std::move(step));
      }
    }
    for (const auto& [key, at] : compares) {
      if (at.size() < 2) continue;  // a lone compare reads it anyway
      const int index = static_cast<int>(operands_.size());
      for (size_t s : at) steps_[s].operand = index;
      operands_.emplace_back();
      operands_.back().key = key;
      operands_.back().expr = steps_[at[0]].compare.operand;
    }
  }

  Status Open() override { return child_->Open(); }
  Result<bool> NextBatch(RowBatch* batch) override {
    VmStats::operator_handoffs.fetch_add(1, std::memory_order_relaxed);
    // refs_ == child refs, so the child's batch is filtered in place:
    // each step is evaluated over the batch's selection view and
    // survivors are marked by intersecting the selection — no column
    // value moves.
    for (;;) {
      VODAK_ASSIGN_OR_RETURN(bool more, child_->NextBatch(batch));
      if (!more) return false;
      for (OperandColumn& operand : operands_) operand.read = false;
      size_t kept = batch->active_rows();
      for (const FilterStep& step : steps_) {
        VODAK_RETURN_IF_ERROR(step.operand >= 0 ? Compare(step, *batch)
                                                : Evaluate(step, *batch));
        kept = batch->IntersectSelection(keep_);
        if (kept == 0) break;
      }
      if (kept > 0) {
        rows_produced_ += kept;
        return true;
      }
    }
  }
  void Close() override { child_->Close(); }
  std::string name() const override { return "Filter"; }
  std::string params() const override {
    std::vector<std::string> parts;
    for (const ExprRef& cond : conds_) parts.push_back(cond->ToString());
    std::string out = Join(parts, ", ");
    if (operands_.empty()) return out;
    std::vector<std::string> keys;
    for (const OperandColumn& operand : operands_) keys.push_back(operand.key);
    return out + " [reads once: " + Join(keys, ", ") + "]";
  }
  const std::vector<const PhysOperator*> children() const override {
    return {child_.get()};
  }

 private:
  /// A property two or more compares share, and its column in the
  /// current batch.
  struct OperandColumn {
    std::string key;  // the operand's text
    ExprRef expr;
    /// Whether `values` holds this batch's read.
    bool read = false;
    /// Indexed by physical row; rows not live at the read stay NIL and
    /// are never compared.
    ValueColumn values;
  };

  /// keep_[i] := the step's compare holds on the i-th live row, reading
  /// the shared operand at its first compare of the batch.
  Status Compare(const FilterStep& step, const RowBatch& batch) {
    OperandColumn& operand = operands_[step.operand];
    if (!operand.read) {
      VODAK_ASSIGN_OR_RETURN(
          ValueColumn live,
          evaluator_.EvalBatch(operand.expr, EnvOfBatch(refs_, batch)));
      if (batch.has_selection()) {
        // One value per live row: scatter to physical rows (as MapOp
        // does), since later compares see a subset of these rows.
        operand.values.assign(batch.num_rows(), Value::Null());
        for (size_t i = 0; i < live.size(); ++i) {
          operand.values[batch.RowAt(i)] = std::move(live[i]);
        }
      } else {
        operand.values = std::move(live);
      }
      operand.read = true;
    }
    const SargableCompare& cmp = step.compare;
    const Value& constant = cmp.constant->value();
    keep_.resize(batch.active_rows());
    for (size_t i = 0; i < keep_.size(); ++i) {
      const Value& v = operand.values[batch.RowAt(i)];
      keep_[i] = cmp.const_lhs
                     ? ExprEvaluator::CompareHolds(cmp.op, constant, v)
                     : ExprEvaluator::CompareHolds(cmp.op, v, constant);
    }
    return Status::OK();
  }

  /// keep_[i] := the conjunct holds on the i-th live row.
  Status Evaluate(const FilterStep& step, const RowBatch& batch) {
    const BatchEnv env = EnvOfBatch(refs_, batch);
    if (!step.strict) {
      return evaluator_.EvalPredicateBatch(step.cond, env, &keep_);
    }
    VODAK_ASSIGN_OR_RETURN(ValueColumn vals,
                           evaluator_.EvalBatch(step.cond, env));
    keep_.resize(vals.size());
    for (size_t i = 0; i < vals.size(); ++i) {
      if (!vals[i].is_bool()) {
        return Status::TypeError("boolean connective on non-boolean " +
                                 vals[i].ToString());
      }
      keep_[i] = vals[i].AsBool();
    }
    return Status::OK();
  }

  ExprEvaluator evaluator_;
  PhysOpPtr child_;
  /// The run's select conditions, lowest select first (EXPLAIN).
  std::vector<ExprRef> conds_;
  std::vector<FilterStep> steps_;
  std::vector<OperandColumn> operands_;
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
                 ExprRef cond, std::vector<std::string> refs)
      : PhysOperator(std::move(refs)),
        evaluator_(ctx.catalog, ctx.store, ctx.methods, ctx.snapshot_epoch),
        left_(std::move(left)),
        right_(std::move(right)),
        cond_(std::move(cond)),
        cross_product_(cond_->kind() == ExprKind::kConst &&
                       cond_->value().is_bool() && cond_->value().AsBool()),
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
    inner_.clear();
    VODAK_RETURN_IF_ERROR(MaterializeInner());
    left_batch_.Reset(0);
    left_pos_ = 0;
    right_pos_ = 0;
    left_done_ = false;
    return Status::OK();
  }

  Result<bool> NextBatch(RowBatch* batch) override {
    VmStats::operator_handoffs.fetch_add(1, std::memory_order_relaxed);
    const std::vector<Row>& inner = inner_;
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
    inner_.clear();
    left_batch_.Reset(0);
  }
  std::string name() const override { return "NestedLoopJoin"; }
  std::string params() const override { return cond_->ToString(); }
  const std::vector<const PhysOperator*> children() const override {
    return {left_.get(), right_.get()};
  }

 private:
  Status MaterializeInner() {
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
        inner_.push_back(row);
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
  const CancellationToken* cancel_;
  Deadline deadline_;
  std::vector<Row> inner_;  // the materialized inner side
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
           std::vector<std::string> refs)
      : PhysOperator(std::move(refs)),
        left_(std::move(left)),
        right_(std::move(right)),
        left_keys_(std::move(left_keys)),
        right_keys_(std::move(right_keys)) {
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
    table_.clear();
    built_ = false;
    return left_->Open();
  }

  /// Deferred build on the first NextBatch call: drains the build
  /// (right) side into the table.
  Status BuildTable() {
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
        table_[key].push_back(row);
      }
    }
    right_->Close();
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
        auto it = table_.find(key);
        if (it == table_.end()) continue;
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
    table_.clear();
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
  JoinTable table_;
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
        evaluator_(ctx.catalog, ctx.store, ctx.methods, ctx.snapshot_epoch),
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
        evaluator_(ctx.catalog, ctx.store, ctx.methods, ctx.snapshot_epoch),
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
/// vectors"): only the child's selected rows are checked against the
/// dedup sets; the output batch is dense by construction.
class ProjectDedup : public PhysOperator {
 public:
  ProjectDedup(PhysOpPtr child, std::vector<std::string> refs)
      : PhysOperator(std::move(refs)), child_(std::move(child)) {
    for (const std::string& r : refs_) {
      child_index_.push_back(child_->RefIndex(r));
    }
  }

  Status Open() override {
    ClearSeen();
    return child_->Open();
  }
  Result<bool> NextBatch(RowBatch* batch) override {
    VmStats::operator_handoffs.fetch_add(1, std::memory_order_relaxed);
    for (;;) {
      VODAK_ASSIGN_OR_RETURN(bool more, child_->NextBatch(&child_batch_));
      if (!more) return false;
      batch->Reset(refs_.size());
      size_t out_rows = 0;
      for (size_t i = 0; i < child_batch_.active_rows(); ++i) {
        const size_t r = child_batch_.RowAt(i);
        if (!FirstSighting(r)) continue;
        for (size_t c = 0; c < refs_.size(); ++c) {
          batch->column(c).push_back(child_batch_.column(child_index_[c])[r]);
        }
        ++out_rows;
      }
      if (out_rows > 0) {
        batch->set_num_rows(out_rows);
        rows_produced_ += out_rows;
        return true;
      }
    }
  }
  void Close() override {
    child_->Close();
    ClearSeen();
  }
  std::string name() const override { return "Project"; }
  std::string params() const override { return Join(refs_, ", "); }
  const std::vector<const PhysOperator*> children() const override {
    return {child_.get()};
  }

 private:
  /// True the first time the projection of child row `r` is seen. A
  /// one-column OID, INT or STRING is keyed on its machine value: the
  /// OID's 64 bits, the int64_t, or the string's bytes through a view
  /// into a copy of the Value kept in `strings_` (never into the output
  /// batch, whose values ExecuteColumn moves out). Every other row,
  /// including NIL, BOOL and REAL (where -0.0 == 0.0), goes through
  /// Value::Hash/Compare.
  bool FirstSighting(size_t r) {
    if (refs_.size() == 1) {
      const Value& v = child_batch_.column(child_index_[0])[r];
      switch (v.kind()) {
        case Value::Kind::kOid:
          return seen_oids_.insert(v.AsOid().Hash()).second;
        case Value::Kind::kInt:
          return seen_ints_.insert(v.AsInt()).second;
        case Value::Kind::kString: {
          const bool fresh = seen_strings_.insert(v.AsString()).second;
          if (fresh) strings_.push_back(v);
          return fresh;
        }
        default:
          break;
      }
    }
    projected_.resize(refs_.size());
    for (size_t c = 0; c < refs_.size(); ++c) {
      projected_[c] = child_batch_.column(child_index_[c])[r];
    }
    return seen_rows_.insert(projected_).second;
  }
  void ClearSeen() {
    seen_oids_.clear();
    seen_ints_.clear();
    seen_strings_.clear();
    strings_.clear();
    seen_rows_.clear();
  }

  PhysOpPtr child_;
  std::vector<int> child_index_;
  std::unordered_set<uint64_t> seen_oids_;
  std::unordered_set<int64_t> seen_ints_;
  std::unordered_set<std::string_view> seen_strings_;
  /// Owners of the bytes `seen_strings_` views into.
  std::vector<Value> strings_;
  std::unordered_set<Row, RowHash, RowEq> seen_rows_;
  /// Scratch row for the seen_rows_ lookup; copied in only when new.
  Row projected_;
  RowBatch child_batch_;
};

/// Sargable predicates visible at each scan leaf, keyed by leaf node
/// identity: the kSelect conjuncts above the leaf on a pushdown-safe
/// path, classified by exec/sargable.h against the leaf's scan
/// variable. Pushing a single-variable compare below map/flat/project
/// and to either side of join/natural-join is sound: a row the
/// predicate refutes can only produce output rows the select above
/// would drop.
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
      CollectLeafPreds(plan->input(0), catalog, pending, out);
      CollectLeafPreds(plan->input(1), catalog, std::move(pending), out);
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

/// Builds the private batch source for a scan leaf (kGet → segment or
/// extent cursor, kExprSource → method/expression scan). `preds` are
/// the query's sargable predicates over this leaf's scan variable
/// (normalized `col op const` conjuncts, extracted by exec/sargable.h)
/// so a segment-backed source can zone-map-skip; non-segment sources
/// ignore them.
Result<BatchSourcePtr> MakeLeafBatchSource(
    const LogicalNode& leaf, const ExecContext& ctx,
    const std::vector<storage::SlotPredicate>& leaf_preds) {
  switch (leaf.op()) {
    case LogicalOp::kGet: {
      const ClassDef* cls = ctx.catalog->FindClass(leaf.class_name());
      if (cls == nullptr) {
        return Status::PlanError("unknown class '" + leaf.class_name() +
                                 "'");
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
      return BatchSourcePtr(
          std::make_unique<ExprBatchSource>(ctx, leaf.expr()));
    }
    default:
      return Status::PlanError("logical node '" +
                               std::string(LogicalOpName(leaf.op())) +
                               "' is not a scan leaf");
  }
}

/// Recursive plan builder behind BuildPhysical; `leaf_preds` holds
/// each scan leaf's sargable conjuncts.
Result<PhysOpPtr> BuildPhysicalImpl(const LogicalRef& plan,
                                    const ExecContext& ctx,
                                    const LeafPredMap* leaf_preds) {
  switch (plan->op()) {
    case LogicalOp::kGet:
    case LogicalOp::kExprSource: {
      VODAK_ASSIGN_OR_RETURN(
          BatchSourcePtr source,
          MakeLeafBatchSource(*plan, ctx,
                              LeafPredsFor(leaf_preds, plan.get())));
      return PhysOpPtr(new ScanOp(ctx, plan->ref(), std::move(source)));
    }
    case LogicalOp::kSelect: {
      // A run of stacked selects builds one Filter, lowest select
      // first (the order stacked Filters would apply them).
      std::vector<ExprRef> conds;
      const LogicalRef* below = &plan;
      for (; (*below)->op() == LogicalOp::kSelect;
           below = &(*below)->input(0)) {
        conds.push_back((*below)->expr());
      }
      std::reverse(conds.begin(), conds.end());
      VODAK_ASSIGN_OR_RETURN(
          PhysOpPtr child, BuildPhysicalImpl(*below, ctx, leaf_preds));
      return PhysOpPtr(new Filter(ctx, std::move(child), conds));
    }
    case LogicalOp::kJoin: {
      VODAK_ASSIGN_OR_RETURN(
          PhysOpPtr left, BuildPhysicalImpl(plan->input(0), ctx, leaf_preds));
      VODAK_ASSIGN_OR_RETURN(
          PhysOpPtr right, BuildPhysicalImpl(plan->input(1), ctx, leaf_preds));
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
              std::move(left), std::move(right), {a}, {b}, RefsOf(plan)));
        }
      }
      return PhysOpPtr(new NestedLoopJoin(
          ctx, std::move(left), std::move(right), cond, RefsOf(plan)));
    }
    case LogicalOp::kNaturalJoin: {
      VODAK_ASSIGN_OR_RETURN(
          PhysOpPtr left, BuildPhysicalImpl(plan->input(0), ctx, leaf_preds));
      VODAK_ASSIGN_OR_RETURN(
          PhysOpPtr right, BuildPhysicalImpl(plan->input(1), ctx, leaf_preds));
      std::vector<std::string> shared;
      for (const auto& [ref, type] : plan->input(0)->schema()) {
        if (plan->input(1)->HasRef(ref)) shared.push_back(ref);
      }
      return PhysOpPtr(new HashJoin(
          std::move(left), std::move(right), shared, shared, RefsOf(plan)));
    }
    case LogicalOp::kMap: {
      VODAK_ASSIGN_OR_RETURN(
          PhysOpPtr child, BuildPhysicalImpl(plan->input(0), ctx, leaf_preds));
      return PhysOpPtr(new MapOp(ctx, std::move(child), plan->ref(),
                                 plan->expr(), RefsOf(plan)));
    }
    case LogicalOp::kFlat: {
      VODAK_ASSIGN_OR_RETURN(
          PhysOpPtr child, BuildPhysicalImpl(plan->input(0), ctx, leaf_preds));
      return PhysOpPtr(new FlatOp(ctx, std::move(child), plan->ref(),
                                  plan->expr(), RefsOf(plan)));
    }
    case LogicalOp::kProject: {
      VODAK_ASSIGN_OR_RETURN(
          PhysOpPtr child, BuildPhysicalImpl(plan->input(0), ctx, leaf_preds));
      return PhysOpPtr(
          new ProjectDedup(std::move(child), plan->projection()));
    }
    case LogicalOp::kGroupRef:
      return Status::PlanError(
          "group placeholder in executable plan (optimizer bug)");
  }
  return Status::Internal("unreachable logical op in plan builder");
}

}  // namespace

Result<PhysOpPtr> BuildPhysical(const LogicalRef& plan,
                                const ExecContext& ctx) {
  LeafPredMap leaf_preds;
  CollectLeafPreds(plan, *ctx.catalog, {}, &leaf_preds);
  return BuildPhysicalImpl(plan, ctx, &leaf_preds);
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
    // reason to compact every column to consume one. The values move
    // out of the batch, so no operator may keep a view into it; the
    // ProjectDedup root keeps its own copies of the strings it keys.
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
