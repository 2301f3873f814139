#ifndef VODAK_EXPR_EXPR_EVAL_H_
#define VODAK_EXPR_EXPR_EVAL_H_

#include <map>
#include <string>
#include <vector>

#include "expr/expr.h"
#include "methods/method_registry.h"

namespace vodak {


/// Variable bindings for one evaluation (query variable -> value).
using Env = std::map<std::string, Value>;

// ValueColumn — one value per row of a batch, the unit of batched
// evaluation — lives in methods/method_registry.h, shared with the
// set-at-a-time method ABI.

/// Batch variable bindings: a non-owning view mapping reference names to
/// value columns of a common length. names and columns are parallel.
///
/// An optional *selection view* (docs/ARCHITECTURE.md §"Selection
/// vectors"): when `sel` is non-null the environment denotes only the
/// `sel_count` physical rows sel[0..sel_count), in ascending order, and
/// the batch entry points return one result per *selected* row.
/// Unselected rows are semantically absent — they are never evaluated,
/// can never error, and can never reach a method body.
struct BatchEnv {
  const std::vector<std::string>* names = nullptr;
  const std::vector<ValueColumn>* columns = nullptr;
  /// Physical rows held by the columns.
  size_t num_rows = 0;
  /// Optional selection: ascending physical row indices, each <
  /// num_rows. Null means dense (every row live).
  const uint32_t* sel = nullptr;
  size_t sel_count = 0;

  /// Rows the environment denotes (selection count, or num_rows when
  /// dense).
  size_t active_rows() const { return sel != nullptr ? sel_count : num_rows; }
  /// Physical index of the i-th denoted row.
  size_t RowAt(size_t i) const {
    return sel != nullptr ? static_cast<size_t>(sel[i]) : i;
  }

  const ValueColumn* Find(const std::string& name) const {
    for (size_t i = 0; i < names->size(); ++i) {
      if ((*names)[i] == name) return &(*columns)[i];
    }
    return nullptr;
  }
};

/// Evaluates expressions against the database. This single definition of
/// expression semantics is shared by the naive VQL interpreter (the
/// ground truth in correctness tests) and by the physical operators, so a
/// plan rewrite can never silently change what an expression means.
///
/// Set-lifted access follows §2.3 of the paper: for a set-valued base,
/// `S.prop` and `S→m()` denote the union of the member results ("the
/// system-defined methods which perform the access to the property are
/// invoked for all objects in the set").
class ExprEvaluator {
 public:
  /// `snapshot` is the epoch every store read resolves at — the query's
  /// pinned snapshot; the kEpochLatest default keeps read-only callers
  /// (tests, loaders) on live state.
  ExprEvaluator(const Catalog* catalog, ObjectStore* store,
                MethodRegistry* methods, Epoch snapshot = kEpochLatest)
      : catalog_(catalog),
        store_(store),
        methods_(methods),
        snapshot_(snapshot) {}

  Result<Value> Eval(const ExprRef& e, const Env& env) const;

  /// Evaluates a condition to a boolean (error if non-boolean result).
  Result<bool> EvalPredicate(const ExprRef& e, const Env& env) const;

  /// Batched evaluation: one result value per *active* row of `env`
  /// (every row when dense, the selected rows under a selection view).
  /// Semantically identical to calling Eval row by row over the denoted
  /// rows (AND/OR keep their per-row short-circuit via masked evaluation
  /// of the right operand), but amortizes environment setup and
  /// property-slot resolution across the batch. This is the entry point
  /// of the vectorized physical operators; the oracles (vql::Interpreter
  /// and algebra::EvalLogical) never call it. Under a selection the
  /// needed variable columns are gathered
  /// once into a dense sub-batch, so unselected rows are physically
  /// absent from all downstream evaluation (including method dispatch).
  Result<ValueColumn> EvalBatch(const ExprRef& e,
                                const BatchEnv& env) const;

  /// Batched EvalPredicate: keep[i] records whether the i-th *active*
  /// row satisfies the condition (NIL counts as FALSE). `keep` is
  /// resized to env.active_rows(); under a selection view keep[i]
  /// refers to physical row env.RowAt(i) — the shape
  /// RowBatch::IntersectSelection consumes directly.
  Status EvalPredicateBatch(const ExprRef& e, const BatchEnv& env,
                            std::vector<char>* keep) const;

  /// Evaluates a closed (variable-free) expression — a method-scan
  /// parameter like `Paragraph->retrieve_by_string('s')` — through the
  /// batched entry point (a one-row, zero-column environment), so
  /// external method dispatch is uniformly set-at-a-time even for the
  /// scan leaves. Semantically identical to Eval(e, {}).
  Result<Value> EvalClosed(const ExprRef& e) const;

  const Catalog* catalog() const { return catalog_; }
  ObjectStore* store() const { return store_; }
  MethodRegistry* methods() const { return methods_; }
  Epoch snapshot() const { return snapshot_; }

  /// A copy of this evaluator reading at `snapshot` instead. Members
  /// are raw pointers, so the copy is free; the interpreter uses this
  /// to re-aim its const evaluator at a query's pinned epoch.
  ExprEvaluator WithSnapshot(Epoch snapshot) const {
    return ExprEvaluator(catalog_, store_, methods_, snapshot);
  }

  /// Applies a binary operator to already-evaluated operands. Exposed so
  /// physical operators can evaluate restricted-algebra θ parameters
  /// without building expression trees.
  static Result<Value> ApplyBinary(BinOp op, const Value& lhs,
                                   const Value& rhs);

  /// True for the total-order comparison operators (==, !=, <, <=, >,
  /// >=) — the operators whose evaluation reduces to Value::Compare,
  /// never errors, and never yields NIL. These are the compares the
  /// batch fast paths (EvalPredicateBatch's fused loop, the physical
  /// Filter's shared-operand compares) may evaluate eagerly without
  /// changing masked short-circuit semantics.
  static bool IsLowerableCompare(BinOp op);

  /// Whether `lhs <op> rhs` holds under the engine's total order —
  /// exactly ApplyBinary's semantics for the IsLowerableCompare subset
  /// (both reduce to Value::Compare), exposed as a bool so fused
  /// per-row loops skip Value boxing. Inline, with INT against INT —
  /// the dominant compare — decided without Value::Compare's variant
  /// dispatch; every other pair takes the generic total order.
  static bool CompareHolds(BinOp op, const Value& lhs, const Value& rhs) {
    int c;
    if (lhs.is_int() && rhs.is_int()) {
      const int64_t x = lhs.AsInt();
      const int64_t y = rhs.AsInt();
      c = x < y ? -1 : (x > y ? 1 : 0);
    } else {
      c = Value::Compare(lhs, rhs);
    }
    switch (op) {
      case BinOp::kEq:
        return c == 0;
      case BinOp::kNe:
        return c != 0;
      case BinOp::kLt:
        return c < 0;
      case BinOp::kLe:
        return c <= 0;
      case BinOp::kGt:
        return c > 0;
      default:
        return c >= 0;  // kGe
    }
  }

 private:
  Result<Value> EvalProperty(const Value& base,
                             const std::string& prop) const;
  Result<Value> EvalMethod(const Value& base, const std::string& method,
                           const std::vector<Value>& args) const;

  /// Column-wise property access with the (class, property) -> slot
  /// resolution cached across consecutive rows of the same class.
  Result<ValueColumn> EvalPropertyColumn(const ValueColumn& base,
                                         const std::string& prop) const;

  /// Column-wise instance-method invocation: contiguous runs of plain
  /// Oid receivers go through MethodRegistry::InvokeInstanceBatch (the
  /// set-at-a-time ABI); NULL receivers yield NIL and set-valued
  /// receivers take the scalar set-lifting path, all in row order.
  Result<ValueColumn> EvalMethodColumn(
      const ValueColumn& base, const std::string& method,
      const std::vector<ValueColumn>& args) const;

  /// Resolves a batch operand to a column: bare variables borrow the
  /// environment's column (no batch-sized copy); anything else is
  /// evaluated into `*storage` and that is returned.
  Result<const ValueColumn*> ResolveOperandColumn(
      const ExprRef& e, const BatchEnv& env, ValueColumn* storage) const;

  const Catalog* catalog_;
  ObjectStore* store_;
  MethodRegistry* methods_;
  Epoch snapshot_;
};

}  // namespace vodak

#endif  // VODAK_EXPR_EXPR_EVAL_H_
