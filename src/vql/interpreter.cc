#include "vql/interpreter.h"

namespace vodak {
namespace vql {

namespace {

/// Binds ranges [index, ...) under `env`, evaluating WHERE and ACCESS at
/// each complete binding.
Status RunRanges(const BoundQuery& query, const ExprEvaluator& ev,
                 size_t index, Env* env, std::vector<Value>* out) {
  if (index == query.from.size()) {
    if (query.where != nullptr) {
      VODAK_ASSIGN_OR_RETURN(bool keep, ev.EvalPredicate(query.where, *env));
      if (!keep) return Status::OK();
    }
    VODAK_ASSIGN_OR_RETURN(Value v, ev.Eval(query.access, *env));
    out->push_back(std::move(v));
    return Status::OK();
  }

  const BoundRange& range = query.from[index];
  if (range.kind == RangeKind::kExtent) {
    const ClassDef* cls = ev.catalog()->FindClass(range.class_name);
    if (cls == nullptr) {
      return Status::BindError("unknown class '" + range.class_name + "'");
    }
    VODAK_ASSIGN_OR_RETURN(
        std::vector<Oid> extent,
        ev.store()->Extent(cls->class_id(), ev.snapshot()));
    for (Oid oid : extent) {
      (*env)[range.var] = Value::OfOid(oid);
      VODAK_RETURN_IF_ERROR(RunRanges(query, ev, index + 1, env, out));
    }
    env->erase(range.var);
    return Status::OK();
  }

  VODAK_ASSIGN_OR_RETURN(Value domain, ev.Eval(range.domain, *env));
  if (domain.is_null()) return Status::OK();
  if (!domain.is_set()) {
    return Status::ExecError("range domain of '" + range.var +
                             "' evaluated to non-set " + domain.ToString());
  }
  for (const Value& member : domain.AsSet()) {
    (*env)[range.var] = member;
    VODAK_RETURN_IF_ERROR(RunRanges(query, ev, index + 1, env, out));
  }
  env->erase(range.var);
  return Status::OK();
}

}  // namespace

Result<Value> Interpreter::Run(const BoundQuery& query,
                               const Options& options) const {
  // Re-aim the const evaluator at the query's pinned snapshot (a free
  // pointer copy): every extent, property and method read resolves there.
  const ExprEvaluator ev = evaluator_.WithSnapshot(options.snapshot_epoch);
  std::vector<Value> results;
  Env env;
  VODAK_RETURN_IF_ERROR(RunRanges(query, ev, 0, &env, &results));
  return Value::Set(std::move(results));
}

}  // namespace vql
}  // namespace vodak
