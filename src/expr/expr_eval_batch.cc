// Batched (column-at-a-time) expression evaluation. Semantics are
// defined by the row-at-a-time ExprEvaluator::Eval; this translation
// unit only changes the evaluation *shape*: variables bind to whole
// columns, property slots are resolved once per class instead of once
// per row, and AND/OR evaluate their right operand under a mask so the
// per-row short-circuit behavior (including which rows may error) is
// preserved exactly.
#include "expr/expr_eval.h"

#include <algorithm>

#include "common/copy_stats.h"

namespace vodak {

namespace {

/// Free variables of an expression, in first-occurrence order.
void CollectVars(const ExprRef& e, std::vector<std::string>* out) {
  switch (e->kind()) {
    case ExprKind::kConst:
      return;
    case ExprKind::kVar:
      if (std::find(out->begin(), out->end(), e->var_name()) ==
          out->end()) {
        out->push_back(e->var_name());
      }
      return;
    case ExprKind::kProperty:
      CollectVars(e->base(), out);
      return;
    case ExprKind::kMethodCall:
      CollectVars(e->base(), out);
      for (const auto& arg : e->args()) CollectVars(arg, out);
      return;
    case ExprKind::kClassMethodCall:
      for (const auto& arg : e->args()) CollectVars(arg, out);
      return;
    case ExprKind::kBinary:
      CollectVars(e->lhs(), out);
      CollectVars(e->rhs(), out);
      return;
    case ExprKind::kUnary:
      CollectVars(e->operand(), out);
      return;
    case ExprKind::kTupleCtor:
      for (const auto& [name, fe] : e->fields()) CollectVars(fe, out);
      return;
    case ExprKind::kSetCtor:
      for (const auto& el : e->args()) CollectVars(el, out);
      return;
  }
}

/// Gathers a subset of the rows of `env` into owned dense columns, so a
/// sub-expression can be evaluated only where it is actually needed.
/// Only the columns bound to `needed` variables are copied; the rest of
/// the environment is invisible to the sub-expression anyway. Copies
/// are counted into BatchCopyStats::gather_copies.
struct GatheredBatch {
  std::vector<std::string> names;
  std::vector<ValueColumn> columns;
  std::vector<size_t> row_index;  // position of each gathered row in env

  /// Mask form (AND/OR short-circuit): the rows of a *dense* env with
  /// mask[i] != 0.
  GatheredBatch(const BatchEnv& env, const std::vector<char>& mask,
                const std::vector<std::string>& needed) {
    for (size_t i = 0; i < env.num_rows; ++i) {
      if (mask[i]) row_index.push_back(i);
    }
    Gather(env, needed);
  }

  /// Selection form: the rows denoted by env's selection view, in
  /// order. The gathered batch is how unselected rows stay physically
  /// absent from every downstream evaluation (and from method bodies).
  GatheredBatch(const BatchEnv& env,
                const std::vector<std::string>& needed) {
    row_index.reserve(env.sel_count);
    for (size_t i = 0; i < env.sel_count; ++i) {
      row_index.push_back(env.RowAt(i));
    }
    Gather(env, needed);
  }

  BatchEnv View() const {
    return BatchEnv{&names, &columns, row_index.size()};
  }

 private:
  void Gather(const BatchEnv& env, const std::vector<std::string>& needed) {
    for (size_t c = 0; c < env.names->size(); ++c) {
      if (std::find(needed.begin(), needed.end(), (*env.names)[c]) ==
          needed.end()) {
        continue;
      }
      names.push_back((*env.names)[c]);
      ValueColumn col;
      col.reserve(row_index.size());
      for (size_t i : row_index) col.push_back((*env.columns)[c][i]);
      columns.push_back(std::move(col));
    }
    const uint64_t copied =
        static_cast<uint64_t>(row_index.size()) * columns.size();
    if (copied != 0) {
      BatchCopyStats::gather_copies.fetch_add(copied,
                                              std::memory_order_relaxed);
    }
  }
};

Status NonBooleanConnective(const Value& v) {
  return Status::TypeError("boolean connective on non-boolean " +
                           v.ToString());
}

}  // namespace

Result<const ValueColumn*> ExprEvaluator::ResolveOperandColumn(
    const ExprRef& e, const BatchEnv& env, ValueColumn* storage) const {
  if (e->kind() == ExprKind::kVar) {
    const ValueColumn* col = env.Find(e->var_name());
    if (col == nullptr) {
      return Status::BindError("unbound variable '" + e->var_name() +
                               "'");
    }
    return col;
  }
  VODAK_ASSIGN_OR_RETURN(*storage, EvalBatch(e, env));
  return static_cast<const ValueColumn*>(storage);
}

Result<ValueColumn> ExprEvaluator::EvalPropertyColumn(
    const ValueColumn& base, const std::string& prop) const {
  ValueColumn out;
  out.reserve(base.size());
  // Consecutive oids of the same class are read as one store column:
  // the name -> slot resolution and the store-side class/slot checks
  // happen once per run instead of once per row.
  std::vector<uint32_t> run;
  uint32_t run_class = 0;
  const PropertyDef* run_prop = nullptr;
  auto flush_run = [&]() -> Status {
    if (run.empty()) return Status::OK();
    // Range-scoped read: one atomic stats bump for the whole run, so
    // concurrent drains don't contend per row on the counter.
    VODAK_RETURN_IF_ERROR(store_->GetPropertyColumn(
        run_class, run_prop->slot, run, 0, run.size(), &out, snapshot_));
    run.clear();
    return Status::OK();
  };
  for (const Value& v : base) {
    if (v.is_oid() && !v.AsOid().IsNull()) {
      Oid oid = v.AsOid();
      if (run_prop == nullptr || oid.class_id != run_class) {
        VODAK_RETURN_IF_ERROR(flush_run());
        const ClassDef* cls = catalog_->FindClassById(oid.class_id);
        if (cls == nullptr) {
          return Status::NotFound("oid " + oid.ToString() +
                                  " refers to unknown class");
        }
        run_prop = cls->FindProperty(prop);
        if (run_prop == nullptr) {
          return Status::NotFound("class '" + cls->name() +
                                  "' has no property '" + prop + "'");
        }
        run_class = oid.class_id;
      }
      run.push_back(oid.local);
    } else {
      VODAK_RETURN_IF_ERROR(flush_run());
      VODAK_ASSIGN_OR_RETURN(Value pv, EvalProperty(v, prop));
      out.push_back(std::move(pv));
    }
  }
  VODAK_RETURN_IF_ERROR(flush_run());
  return out;
}

Result<ValueColumn> ExprEvaluator::EvalMethodColumn(
    const ValueColumn& base, const std::string& method,
    const std::vector<ValueColumn>& args) const {
  const size_t n = base.size();
  ValueColumn out;
  out.reserve(n);
  MethodCallContext ctx{catalog_, store_, methods_, 0, snapshot_};
  // Contiguous runs of plain Oid receivers are dispatched through the
  // set-at-a-time ABI; NULL receivers yield NIL without a dispatch (they
  // are exactly the rows a row-at-a-time evaluation would have skipped),
  // and set-valued receivers take the scalar set-lifting path. Runs keep
  // row order, so results and first-error behavior match the row loop.
  ValueColumn run_selves;
  std::vector<ValueColumn> run_args(args.size());
  auto flush_run = [&]() -> Status {
    if (run_selves.empty()) return Status::OK();
    VODAK_RETURN_IF_ERROR(methods_->InvokeInstanceBatch(
        ctx, run_selves, method, run_args, &out));
    run_selves.clear();
    for (ValueColumn& col : run_args) col.clear();
    return Status::OK();
  };
  std::vector<Value> scalar_args(args.size());
  for (size_t i = 0; i < n; ++i) {
    const Value& self = base[i];
    if (self.is_oid() || self.is_null()) {
      run_selves.push_back(self);
      for (size_t a = 0; a < args.size(); ++a) {
        run_args[a].push_back(args[a][i]);
      }
      continue;
    }
    VODAK_RETURN_IF_ERROR(flush_run());
    for (size_t a = 0; a < args.size(); ++a) scalar_args[a] = args[a][i];
    VODAK_ASSIGN_OR_RETURN(Value v, EvalMethod(self, method, scalar_args));
    out.push_back(std::move(v));
  }
  VODAK_RETURN_IF_ERROR(flush_run());
  return out;
}

Result<Value> ExprEvaluator::EvalClosed(const ExprRef& e) const {
  static const std::vector<std::string> kNoNames;
  static const std::vector<ValueColumn> kNoColumns;
  VODAK_ASSIGN_OR_RETURN(
      ValueColumn col, EvalBatch(e, BatchEnv{&kNoNames, &kNoColumns, 1}));
  return std::move(col[0]);
}

Result<ValueColumn> ExprEvaluator::EvalBatch(const ExprRef& e,
                                             const BatchEnv& env) const {
  if (env.sel != nullptr) {
    // Selection view: gather the needed variable bindings through the
    // selection into a dense sub-batch and evaluate that. Only the
    // columns the expression actually references are copied, and the
    // unselected rows are physically absent from everything below —
    // including method dispatch, which is how the batch method ABI's
    // "masked rows never reach a body" contract extends to selection
    // vectors.
    std::vector<std::string> needed;
    CollectVars(e, &needed);
    GatheredBatch gathered(env, needed);
    return EvalBatch(e, gathered.View());
  }
  const size_t n = env.num_rows;
  switch (e->kind()) {
    case ExprKind::kConst:
      return ValueColumn(n, e->value());
    case ExprKind::kVar: {
      const ValueColumn* col = env.Find(e->var_name());
      if (col == nullptr) {
        return Status::BindError("unbound variable '" + e->var_name() +
                                 "'");
      }
      return *col;
    }
    case ExprKind::kProperty: {
      // Variable bases read the bound column in place, skipping a
      // batch-sized copy on the commonest access shape (`p.prop`).
      if (e->base()->kind() == ExprKind::kVar) {
        const ValueColumn* col = env.Find(e->base()->var_name());
        if (col == nullptr) {
          return Status::BindError("unbound variable '" +
                                   e->base()->var_name() + "'");
        }
        return EvalPropertyColumn(*col, e->name());
      }
      VODAK_ASSIGN_OR_RETURN(ValueColumn base, EvalBatch(e->base(), env));
      return EvalPropertyColumn(base, e->name());
    }
    case ExprKind::kMethodCall: {
      VODAK_ASSIGN_OR_RETURN(ValueColumn base, EvalBatch(e->base(), env));
      std::vector<ValueColumn> arg_cols;
      arg_cols.reserve(e->args().size());
      for (const auto& arg : e->args()) {
        VODAK_ASSIGN_OR_RETURN(ValueColumn col, EvalBatch(arg, env));
        arg_cols.push_back(std::move(col));
      }
      return EvalMethodColumn(base, e->method(), arg_cols);
    }
    case ExprKind::kClassMethodCall: {
      std::vector<ValueColumn> arg_cols;
      arg_cols.reserve(e->args().size());
      for (const auto& arg : e->args()) {
        VODAK_ASSIGN_OR_RETURN(ValueColumn col, EvalBatch(arg, env));
        arg_cols.push_back(std::move(col));
      }
      // One set-at-a-time dispatch for the whole batch: a native batch
      // implementation typically dedups repeated argument rows (the
      // common constant-argument shape) into a single external probe.
      ValueColumn out;
      out.reserve(n);
      MethodCallContext ctx{catalog_, store_, methods_, 0, snapshot_};
      VODAK_RETURN_IF_ERROR(methods_->InvokeClassBatch(
          ctx, e->name(), e->method(), n, arg_cols, &out));
      return out;
    }
    case ExprKind::kBinary: {
      if (e->bin_op() == BinOp::kAnd || e->bin_op() == BinOp::kOr) {
        const bool is_and = e->bin_op() == BinOp::kAnd;
        VODAK_ASSIGN_OR_RETURN(ValueColumn lhs, EvalBatch(e->lhs(), env));
        // Rows whose left operand decides the connective keep the
        // short-circuit result; only the undecided rows may evaluate
        // (and thus may error on) the right operand.
        std::vector<char> need_rhs(n, 0);
        size_t pending = 0;
        for (size_t i = 0; i < n; ++i) {
          if (!lhs[i].is_bool()) return NonBooleanConnective(lhs[i]);
          if (lhs[i].AsBool() == is_and) {
            need_rhs[i] = 1;
            ++pending;
          }
        }
        ValueColumn out = std::move(lhs);
        if (pending == 0) return out;
        if (pending == n) {
          // Every row needs the right operand: evaluate it against the
          // full environment, skipping the gather copy entirely.
          VODAK_ASSIGN_OR_RETURN(ValueColumn rhs,
                                 EvalBatch(e->rhs(), env));
          for (size_t i = 0; i < n; ++i) {
            if (!rhs[i].is_bool()) return NonBooleanConnective(rhs[i]);
            out[i] = rhs[i];
          }
          return out;
        }
        std::vector<std::string> rhs_vars;
        CollectVars(e->rhs(), &rhs_vars);
        GatheredBatch gathered(env, need_rhs, rhs_vars);
        VODAK_ASSIGN_OR_RETURN(ValueColumn rhs,
                               EvalBatch(e->rhs(), gathered.View()));
        for (size_t g = 0; g < rhs.size(); ++g) {
          if (!rhs[g].is_bool()) return NonBooleanConnective(rhs[g]);
          out[gathered.row_index[g]] = rhs[g];
        }
        return out;
      }
      // Constant operands apply as scalars instead of materializing a
      // batch-sized constant column (`p.number >= 1` is the hot shape),
      // and bare-variable operands borrow the bound column in place.
      if (e->rhs()->kind() == ExprKind::kConst) {
        ValueColumn storage;
        VODAK_ASSIGN_OR_RETURN(const ValueColumn* lhs,
                               ResolveOperandColumn(e->lhs(), env,
                                                    &storage));
        const Value& rhs = e->rhs()->value();
        ValueColumn out;
        out.reserve(n);
        for (size_t i = 0; i < n; ++i) {
          VODAK_ASSIGN_OR_RETURN(
              Value v, ApplyBinary(e->bin_op(), (*lhs)[i], rhs));
          out.push_back(std::move(v));
        }
        return out;
      }
      if (e->lhs()->kind() == ExprKind::kConst) {
        const Value& lhs = e->lhs()->value();
        ValueColumn storage;
        VODAK_ASSIGN_OR_RETURN(const ValueColumn* rhs,
                               ResolveOperandColumn(e->rhs(), env,
                                                    &storage));
        ValueColumn out;
        out.reserve(n);
        for (size_t i = 0; i < n; ++i) {
          VODAK_ASSIGN_OR_RETURN(
              Value v, ApplyBinary(e->bin_op(), lhs, (*rhs)[i]));
          out.push_back(std::move(v));
        }
        return out;
      }
      ValueColumn lhs_storage;
      ValueColumn rhs_storage;
      VODAK_ASSIGN_OR_RETURN(const ValueColumn* lhs,
                             ResolveOperandColumn(e->lhs(), env,
                                                  &lhs_storage));
      VODAK_ASSIGN_OR_RETURN(const ValueColumn* rhs,
                             ResolveOperandColumn(e->rhs(), env,
                                                  &rhs_storage));
      ValueColumn out;
      out.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        VODAK_ASSIGN_OR_RETURN(
            Value v, ApplyBinary(e->bin_op(), (*lhs)[i], (*rhs)[i]));
        out.push_back(std::move(v));
      }
      return out;
    }
    case ExprKind::kUnary: {
      VODAK_ASSIGN_OR_RETURN(ValueColumn operand,
                             EvalBatch(e->operand(), env));
      ValueColumn out;
      out.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        const Value& v = operand[i];
        if (e->un_op() == UnOp::kNot) {
          if (!v.is_bool()) {
            return Status::TypeError("NOT on non-boolean " + v.ToString());
          }
          out.push_back(Value::Bool(!v.AsBool()));
        } else if (v.is_int()) {
          out.push_back(Value::Int(-v.AsInt()));
        } else if (v.is_real()) {
          out.push_back(Value::Real(-v.AsReal()));
        } else {
          return Status::TypeError("negation of non-numeric " +
                                   v.ToString());
        }
      }
      return out;
    }
    case ExprKind::kTupleCtor: {
      std::vector<ValueColumn> field_cols;
      field_cols.reserve(e->fields().size());
      for (const auto& [name, fe] : e->fields()) {
        VODAK_ASSIGN_OR_RETURN(ValueColumn col, EvalBatch(fe, env));
        field_cols.push_back(std::move(col));
      }
      ValueColumn out;
      out.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        ValueTuple fields;
        fields.reserve(field_cols.size());
        for (size_t f = 0; f < field_cols.size(); ++f) {
          fields.emplace_back(e->fields()[f].first, field_cols[f][i]);
        }
        out.push_back(Value::Tuple(std::move(fields)));
      }
      return out;
    }
    case ExprKind::kSetCtor: {
      std::vector<ValueColumn> elem_cols;
      elem_cols.reserve(e->args().size());
      for (const auto& el : e->args()) {
        VODAK_ASSIGN_OR_RETURN(ValueColumn col, EvalBatch(el, env));
        elem_cols.push_back(std::move(col));
      }
      ValueColumn out;
      out.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        std::vector<Value> elems;
        elems.reserve(elem_cols.size());
        for (const auto& col : elem_cols) elems.push_back(col[i]);
        out.push_back(Value::Set(std::move(elems)));
      }
      return out;
    }
  }
  return Status::Internal("unreachable expression kind");
}

/// The six total-order comparisons. Deliberately narrower than
/// IsComparisonOp, which also covers IS-IN / IS-SUBSET — those have
/// set-membership semantics (and can error), not Compare semantics.
bool ExprEvaluator::IsLowerableCompare(BinOp op) {
  switch (op) {
    case BinOp::kEq:
    case BinOp::kNe:
    case BinOp::kLt:
    case BinOp::kLe:
    case BinOp::kGt:
    case BinOp::kGe:
      return true;
    default:
      return false;
  }
}

Status ExprEvaluator::EvalPredicateBatch(const ExprRef& e,
                                         const BatchEnv& env,
                                         std::vector<char>* keep) const {
  const size_t active = env.active_rows();
  // Fused fast path for `<expr> <cmp> <const>` selections: compare the
  // evaluated column against the scalar directly instead of
  // materializing a boolean column. Ordering comparisons are total
  // (ApplyBinary never errors on them), so semantics are unchanged.
  // Under a selection view a bare-variable operand borrows the bound
  // *physical* column and is read through RowAt — a selection chain of
  // variable comparisons evaluates with zero value copies.
  if (e->kind() == ExprKind::kBinary &&
      IsLowerableCompare(e->bin_op()) &&
      (e->lhs()->kind() == ExprKind::kConst ||
       e->rhs()->kind() == ExprKind::kConst)) {
    const bool const_lhs = e->lhs()->kind() == ExprKind::kConst;
    const Value& scalar =
        const_lhs ? e->lhs()->value() : e->rhs()->value();
    const ExprRef& operand = const_lhs ? e->rhs() : e->lhs();
    // A borrowed variable column stays physical-length (index through
    // RowAt); an evaluated operand comes back dense over the active
    // rows (index directly).
    const bool physical = operand->kind() == ExprKind::kVar;
    ValueColumn storage;
    VODAK_ASSIGN_OR_RETURN(
        const ValueColumn* col,
        ResolveOperandColumn(operand, env, &storage));
    keep->resize(active);
    for (size_t i = 0; i < active; ++i) {
      const Value& v = (*col)[physical ? env.RowAt(i) : i];
      (*keep)[i] = const_lhs ? CompareHolds(e->bin_op(), scalar, v)
                             : CompareHolds(e->bin_op(), v, scalar);
    }
    return Status::OK();
  }
  VODAK_ASSIGN_OR_RETURN(ValueColumn vals, EvalBatch(e, env));
  keep->assign(active, 0);
  for (size_t i = 0; i < active; ++i) {
    const Value& v = vals[i];
    if (v.is_null()) continue;  // NIL predicate result counts as FALSE
    if (!v.is_bool()) {
      return Status::TypeError("condition evaluated to non-boolean " +
                               v.ToString());
    }
    (*keep)[i] = v.AsBool();
  }
  return Status::OK();
}

}  // namespace vodak
