#include "algebra/eval.h"

namespace vodak {
namespace algebra {

namespace {

Env EnvFromTuple(const Value& tuple) {
  Env env;
  for (const auto& [name, value] : tuple.AsTuple()) {
    env[name] = value;
  }
  return env;
}

Result<Value> ExtendTuple(const Value& tuple, const std::string& ref,
                          Value value) {
  ValueTuple fields = tuple.AsTuple();
  fields.emplace_back(ref, std::move(value));
  return Value::Tuple(std::move(fields));
}

}  // namespace

Result<Value> EvalLogical(const LogicalRef& node,
                          const ExprEvaluator& evaluator) {
  switch (node->op()) {
    case LogicalOp::kGet: {
      const ClassDef* cls =
          evaluator.catalog()->FindClass(node->class_name());
      if (cls == nullptr) {
        return Status::BindError("unknown class '" + node->class_name() +
                                 "'");
      }
      VODAK_ASSIGN_OR_RETURN(
          std::vector<Oid> extent,
          evaluator.store()->Extent(cls->class_id(),
                                    evaluator.snapshot()));
      std::vector<Value> tuples;
      tuples.reserve(extent.size());
      for (Oid oid : extent) {
        tuples.push_back(Value::Tuple({{node->ref(), Value::OfOid(oid)}}));
      }
      return Value::Set(std::move(tuples));
    }
    case LogicalOp::kExprSource: {
      VODAK_ASSIGN_OR_RETURN(Value set, evaluator.Eval(node->expr(), {}));
      if (set.is_null()) return Value::Set({});
      if (!set.is_set()) {
        return Status::ExecError("expr_source evaluated to non-set " +
                                 set.ToString());
      }
      std::vector<Value> tuples;
      tuples.reserve(set.AsSet().size());
      for (const Value& v : set.AsSet()) {
        tuples.push_back(Value::Tuple({{node->ref(), v}}));
      }
      return Value::Set(std::move(tuples));
    }
    case LogicalOp::kSelect: {
      VODAK_ASSIGN_OR_RETURN(Value input,
                             EvalLogical(node->input(0), evaluator));
      std::vector<Value> tuples;
      for (const Value& tuple : input.AsSet()) {
        VODAK_ASSIGN_OR_RETURN(
            bool keep,
            evaluator.EvalPredicate(node->expr(), EnvFromTuple(tuple)));
        if (keep) tuples.push_back(tuple);
      }
      return Value::Set(std::move(tuples));
    }
    case LogicalOp::kJoin: {
      VODAK_ASSIGN_OR_RETURN(Value left,
                             EvalLogical(node->input(0), evaluator));
      VODAK_ASSIGN_OR_RETURN(Value right,
                             EvalLogical(node->input(1), evaluator));
      std::vector<Value> tuples;
      for (const Value& lt : left.AsSet()) {
        for (const Value& rt : right.AsSet()) {
          ValueTuple fields = lt.AsTuple();
          const ValueTuple& rf = rt.AsTuple();
          fields.insert(fields.end(), rf.begin(), rf.end());
          Value joined = Value::Tuple(std::move(fields));
          Env env = EnvFromTuple(joined);
          VODAK_ASSIGN_OR_RETURN(
              bool keep, evaluator.EvalPredicate(node->expr(), env));
          if (keep) tuples.push_back(std::move(joined));
        }
      }
      return Value::Set(std::move(tuples));
    }
    case LogicalOp::kNaturalJoin: {
      VODAK_ASSIGN_OR_RETURN(Value left,
                             EvalLogical(node->input(0), evaluator));
      VODAK_ASSIGN_OR_RETURN(Value right,
                             EvalLogical(node->input(1), evaluator));
      // Shared references.
      std::vector<std::string> shared;
      for (const auto& [ref, type] : node->input(0)->schema()) {
        if (node->input(1)->HasRef(ref)) shared.push_back(ref);
      }
      std::vector<Value> tuples;
      for (const Value& lt : left.AsSet()) {
        for (const Value& rt : right.AsSet()) {
          bool match = true;
          for (const std::string& ref : shared) {
            auto lv = lt.GetField(ref);
            auto rv = rt.GetField(ref);
            if (!lv.ok() || !rv.ok() ||
                Value::Compare(lv.value(), rv.value()) != 0) {
              match = false;
              break;
            }
          }
          if (!match) continue;
          ValueTuple fields = lt.AsTuple();
          for (const auto& [name, value] : rt.AsTuple()) {
            bool present = false;
            for (const auto& [lname, lvalue] : fields) {
              if (lname == name) {
                present = true;
                break;
              }
            }
            if (!present) fields.emplace_back(name, value);
          }
          tuples.push_back(Value::Tuple(std::move(fields)));
        }
      }
      return Value::Set(std::move(tuples));
    }
    case LogicalOp::kMap: {
      VODAK_ASSIGN_OR_RETURN(Value input,
                             EvalLogical(node->input(0), evaluator));
      std::vector<Value> tuples;
      tuples.reserve(input.AsSet().size());
      for (const Value& tuple : input.AsSet()) {
        VODAK_ASSIGN_OR_RETURN(
            Value computed,
            evaluator.Eval(node->expr(), EnvFromTuple(tuple)));
        VODAK_ASSIGN_OR_RETURN(
            Value extended,
            ExtendTuple(tuple, node->ref(), std::move(computed)));
        tuples.push_back(std::move(extended));
      }
      return Value::Set(std::move(tuples));
    }
    case LogicalOp::kFlat: {
      VODAK_ASSIGN_OR_RETURN(Value input,
                             EvalLogical(node->input(0), evaluator));
      std::vector<Value> tuples;
      for (const Value& tuple : input.AsSet()) {
        VODAK_ASSIGN_OR_RETURN(
            Value set, evaluator.Eval(node->expr(), EnvFromTuple(tuple)));
        if (set.is_null()) continue;
        if (!set.is_set()) {
          return Status::ExecError("flat expression evaluated to non-set " +
                                   set.ToString());
        }
        for (const Value& v : set.AsSet()) {
          VODAK_ASSIGN_OR_RETURN(Value extended,
                                 ExtendTuple(tuple, node->ref(), v));
          tuples.push_back(std::move(extended));
        }
      }
      return Value::Set(std::move(tuples));
    }
    case LogicalOp::kProject: {
      VODAK_ASSIGN_OR_RETURN(Value input,
                             EvalLogical(node->input(0), evaluator));
      std::vector<Value> tuples;
      tuples.reserve(input.AsSet().size());
      for (const Value& tuple : input.AsSet()) {
        ValueTuple fields;
        for (const std::string& ref : node->projection()) {
          VODAK_ASSIGN_OR_RETURN(Value v, tuple.GetField(ref));
          fields.emplace_back(ref, std::move(v));
        }
        tuples.push_back(Value::Tuple(std::move(fields)));
      }
      return Value::Set(std::move(tuples));
    }
    case LogicalOp::kGroupRef:
      return Status::Internal(
          "group placeholder reached the evaluator (optimizer bug)");
  }
  return Status::Internal("unreachable logical op in evaluator");
}

Result<Value> EvalLogicalColumn(const LogicalRef& node,
                                const std::string& ref,
                                const ExprEvaluator& evaluator) {
  VODAK_ASSIGN_OR_RETURN(Value tuples, EvalLogical(node, evaluator));
  std::vector<Value> out;
  out.reserve(tuples.AsSet().size());
  for (const Value& tuple : tuples.AsSet()) {
    VODAK_ASSIGN_OR_RETURN(Value v, tuple.GetField(ref));
    out.push_back(std::move(v));
  }
  return Value::Set(std::move(out));
}

}  // namespace algebra
}  // namespace vodak
