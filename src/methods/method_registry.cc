#include "methods/method_registry.h"

namespace vodak {

namespace {
constexpr int kMaxMethodDepth = 64;
}  // namespace

Result<Value> ReadPropertyByName(const Catalog& catalog,
                                 const ObjectStore& store, Oid oid,
                                 const std::string& property, Epoch at) {
  const ClassDef* cls = catalog.FindClassById(oid.class_id);
  if (cls == nullptr) {
    return Status::NotFound("oid " + oid.ToString() +
                            " refers to unknown class");
  }
  const PropertyDef* prop = cls->FindProperty(property);
  if (prop == nullptr) {
    return Status::NotFound("class '" + cls->name() +
                            "' has no property '" + property + "'");
  }
  return store.GetProperty(oid, prop->slot, at);
}

Status MethodRegistry::Register(const std::string& class_name,
                                MethodSig sig, MethodImpl impl,
                                MethodCost cost) {
  Key key{class_name, sig.name, sig.level};
  if (methods_.count(key) > 0) {
    return Status::AlreadyExists("method implementation '" + class_name +
                                 "::" + sig.name + "'");
  }
  RegisteredMethod method;
  method.sig = std::move(sig);
  method.impl = std::move(impl);
  method.cost = cost;
  methods_.emplace(std::move(key), std::move(method));
  return Status::OK();
}

const MethodRegistry::RegisteredMethod* MethodRegistry::Find(
    const std::string& class_name, const std::string& method,
    MethodLevel level) const {
  auto it = methods_.find(Key{class_name, method, level});
  return it == methods_.end() ? nullptr : &it->second;
}

const MethodRegistry::RegisteredMethod* MethodRegistry::FindAny(
    const std::string& method, MethodLevel level) const {
  for (const auto& [key, reg] : methods_) {
    if (key.method == method && key.level == level) return &reg;
  }
  return nullptr;
}

Status MethodRegistry::SetCost(const std::string& class_name,
                               const std::string& method, MethodLevel level,
                               MethodCost cost) {
  auto it = methods_.find(Key{class_name, method, level});
  if (it == methods_.end()) {
    return Status::NotFound("method '" + class_name + "::" + method + "'");
  }
  it->second.cost = cost;
  return Status::OK();
}

Result<Value> MethodRegistry::EvalPath(
    MethodCallContext& ctx, const std::vector<std::string>& path,
    Oid self) const {
  Value current = Value::OfOid(self);
  for (const std::string& step : path) {
    if (!current.is_oid()) {
      return Status::ExecError("path method step '" + step +
                               "' applied to non-object value " +
                               current.ToString());
    }
    if (current.AsOid().IsNull()) return Value::Null();
    VODAK_ASSIGN_OR_RETURN(
        current,
        ReadPropertyByName(*ctx.catalog, *ctx.store, current.AsOid(), step,
                           ctx.snapshot_epoch));
  }
  return current;
}

Result<Value> MethodRegistry::Dispatch(MethodCallContext& ctx,
                                       const RegisteredMethod& method,
                                       const Value& self,
                                       const std::vector<Value>& args) const {
  if (ctx.depth > kMaxMethodDepth) {
    return Status::ExecError("method recursion limit exceeded in '" +
                             method.sig.name + "'");
  }
  method.invocations.fetch_add(1, std::memory_order_relaxed);
  total_invocations_.fetch_add(1, std::memory_order_relaxed);
  switch (method.impl.kind) {
    case MethodImplKind::kPath:
      if (!self.is_oid()) {
        return Status::ExecError("path method '" + method.sig.name +
                                 "' needs an object receiver");
      }
      return EvalPath(ctx, method.impl.path, self.AsOid());
    case MethodImplKind::kNative:
      if (!method.impl.native) {
        return Status::Internal("method '" + method.sig.name +
                                "' has no runnable implementation");
      }
      return method.impl.native(ctx, self, args);
  }
  return Status::Internal("unreachable method dispatch");
}

Status MethodRegistry::DispatchRun(MethodCallContext& ctx,
                                   const RegisteredMethod& reg,
                                   const ValueColumn& selves,
                                   const std::vector<ValueColumn>& args,
                                   size_t begin, size_t end,
                                   ValueColumn* out) const {
  const size_t n = end - begin;
  if (n == 0) return Status::OK();
  if (reg.impl.native_batch) {
    if (ctx.depth > kMaxMethodDepth) {
      return Status::ExecError("method recursion limit exceeded in '" +
                               reg.sig.name + "'");
    }
    // One set-at-a-time invocation for the whole run: the counter
    // asymmetry vs the scalar row loop (1 vs n bumps) is the observable
    // amortization contract method_batch_test asserts.
    reg.invocations.fetch_add(1, std::memory_order_relaxed);
    total_invocations_.fetch_add(1, std::memory_order_relaxed);
    reg.batch_invocations.fetch_add(1, std::memory_order_relaxed);
    reg.batch_rows.fetch_add(n, std::memory_order_relaxed);
    if (begin == 0 && end == selves.size() &&
        (args.empty() || end == args[0].size())) {
      // Whole-batch run: hand the columns through without a gather copy.
      return reg.impl.native_batch(ctx, selves, n, args, out);
    }
    ValueColumn run_selves(selves.begin() + begin, selves.begin() + end);
    std::vector<ValueColumn> run_args;
    run_args.reserve(args.size());
    for (const ValueColumn& col : args) {
      run_args.emplace_back(col.begin() + begin, col.begin() + end);
    }
    return reg.impl.native_batch(ctx, run_selves, n, run_args, out);
  }
  // Scalar fallback: a plain row loop over the run, dispatching exactly
  // the rows present in the (already masked) batch and nothing else.
  std::vector<Value> row_args(args.size());
  for (size_t i = begin; i < end; ++i) {
    for (size_t a = 0; a < args.size(); ++a) row_args[a] = args[a][i];
    VODAK_ASSIGN_OR_RETURN(
        Value v, Dispatch(ctx, reg, selves.empty() ? Value::Null()
                                                   : selves[i],
                          row_args));
    out->push_back(std::move(v));
  }
  return Status::OK();
}

Status MethodRegistry::InvokeInstanceBatch(
    MethodCallContext& ctx, const ValueColumn& selves,
    const std::string& method, const std::vector<ValueColumn>& args,
    ValueColumn* out) const {
  const size_t n = selves.size();
  for (const ValueColumn& col : args) {
    if (col.size() != n) {
      return Status::InvalidArgument(
          "batch method '" + method + "': argument column of " +
          std::to_string(col.size()) + " rows for " + std::to_string(n) +
          " receivers");
    }
  }
  MethodCallContext inner = ctx;
  ++inner.depth;
  // Rows are processed in order, as class-homogeneous runs, so the first
  // failing row surfaces its error before any later run is dispatched —
  // the same front-to-back error behavior as the scalar row loop.
  size_t run_begin = 0;
  uint32_t run_class = 0;
  const RegisteredMethod* run_reg = nullptr;
  auto flush_run = [&](size_t run_end) -> Status {
    if (run_reg == nullptr) return Status::OK();
    Status s = DispatchRun(inner, *run_reg, selves, args, run_begin,
                           run_end, out);
    run_reg = nullptr;
    return s;
  };
  for (size_t i = 0; i < n; ++i) {
    const Value& self = selves[i];
    // NULL receivers yield NIL without invoking the method: they are how
    // the callers' mask machinery marks rows a row-at-a-time evaluation
    // would have short-circuited past.
    if (self.is_null() || (self.is_oid() && self.AsOid().IsNull())) {
      VODAK_RETURN_IF_ERROR(flush_run(i));
      out->push_back(Value::Null());
      run_begin = i + 1;
      continue;
    }
    if (!self.is_oid()) {
      VODAK_RETURN_IF_ERROR(flush_run(i));
      return Status::TypeError("method '" + method +
                               "' invoked on non-object value " +
                               self.ToString());
    }
    if (run_reg != nullptr && self.AsOid().class_id == run_class) {
      continue;  // extends the current run
    }
    VODAK_RETURN_IF_ERROR(flush_run(i));
    const ClassDef* cls = ctx.catalog->FindClassById(self.AsOid().class_id);
    if (cls == nullptr) {
      return Status::NotFound("receiver " + self.AsOid().ToString() +
                              " has unknown class");
    }
    const RegisteredMethod* reg =
        Find(cls->name(), method, MethodLevel::kInstance);
    if (reg == nullptr) {
      return Status::NotFound("class '" + cls->name() +
                              "' has no instance method '" + method + "'");
    }
    if (reg->sig.params.size() != args.size()) {
      return Status::InvalidArgument(
          "method '" + method + "' expects " +
          std::to_string(reg->sig.params.size()) + " arguments, got " +
          std::to_string(args.size()));
    }
    run_reg = reg;
    run_class = self.AsOid().class_id;
    run_begin = i;
  }
  return flush_run(n);
}

Status MethodRegistry::InvokeClassBatch(
    MethodCallContext& ctx, const std::string& class_name,
    const std::string& method, size_t num_rows,
    const std::vector<ValueColumn>& args, ValueColumn* out) const {
  // A zero-row batch dispatches nothing — not even the method lookup —
  // exactly like the row loop it replaces.
  if (num_rows == 0) return Status::OK();
  const RegisteredMethod* reg =
      Find(class_name, method, MethodLevel::kClassObject);
  if (reg == nullptr) {
    return Status::NotFound("class object '" + class_name +
                            "' has no method '" + method + "'");
  }
  if (reg->sig.params.size() != args.size()) {
    return Status::InvalidArgument(
        "method '" + method + "' expects " +
        std::to_string(reg->sig.params.size()) + " arguments, got " +
        std::to_string(args.size()));
  }
  for (const ValueColumn& col : args) {
    if (col.size() != num_rows) {
      return Status::InvalidArgument(
          "batch method '" + method + "': argument column of " +
          std::to_string(col.size()) + " rows for " +
          std::to_string(num_rows) + " rows");
    }
  }
  MethodCallContext inner = ctx;
  ++inner.depth;
  static const ValueColumn kNoSelves;
  if (reg->impl.native_batch) {
    if (inner.depth > kMaxMethodDepth) {
      return Status::ExecError("method recursion limit exceeded in '" +
                               reg->sig.name + "'");
    }
    reg->invocations.fetch_add(1, std::memory_order_relaxed);
    total_invocations_.fetch_add(1, std::memory_order_relaxed);
    reg->batch_invocations.fetch_add(1, std::memory_order_relaxed);
    reg->batch_rows.fetch_add(num_rows, std::memory_order_relaxed);
    return reg->impl.native_batch(inner, kNoSelves, num_rows, args, out);
  }
  std::vector<Value> row_args(args.size());
  for (size_t i = 0; i < num_rows; ++i) {
    for (size_t a = 0; a < args.size(); ++a) row_args[a] = args[a][i];
    VODAK_ASSIGN_OR_RETURN(
        Value v, Dispatch(inner, *reg, Value::Null(), row_args));
    out->push_back(std::move(v));
  }
  return Status::OK();
}

Result<Value> MethodRegistry::InvokeInstance(
    MethodCallContext& ctx, Oid self, const std::string& method,
    const std::vector<Value>& args) const {
  const ClassDef* cls = ctx.catalog->FindClassById(self.class_id);
  if (cls == nullptr) {
    return Status::NotFound("receiver " + self.ToString() +
                            " has unknown class");
  }
  const RegisteredMethod* reg =
      Find(cls->name(), method, MethodLevel::kInstance);
  if (reg == nullptr) {
    return Status::NotFound("class '" + cls->name() +
                            "' has no instance method '" + method + "'");
  }
  if (reg->sig.params.size() != args.size()) {
    return Status::InvalidArgument(
        "method '" + method + "' expects " +
        std::to_string(reg->sig.params.size()) + " arguments, got " +
        std::to_string(args.size()));
  }
  MethodCallContext inner = ctx;
  ++inner.depth;
  return Dispatch(inner, *reg, Value::OfOid(self), args);
}

Result<Value> MethodRegistry::InvokeClass(
    MethodCallContext& ctx, const std::string& class_name,
    const std::string& method, const std::vector<Value>& args) const {
  const RegisteredMethod* reg =
      Find(class_name, method, MethodLevel::kClassObject);
  if (reg == nullptr) {
    return Status::NotFound("class object '" + class_name +
                            "' has no method '" + method + "'");
  }
  if (reg->sig.params.size() != args.size()) {
    return Status::InvalidArgument(
        "method '" + method + "' expects " +
        std::to_string(reg->sig.params.size()) + " arguments, got " +
        std::to_string(args.size()));
  }
  MethodCallContext inner = ctx;
  ++inner.depth;
  return Dispatch(inner, *reg, Value::Null(), args);
}

uint64_t MethodRegistry::invocation_count(const std::string& class_name,
                                          const std::string& method,
                                          MethodLevel level) const {
  const RegisteredMethod* reg = Find(class_name, method, level);
  return reg == nullptr
             ? 0
             : reg->invocations.load(std::memory_order_relaxed);
}

uint64_t MethodRegistry::batch_invocation_count(
    const std::string& class_name, const std::string& method,
    MethodLevel level) const {
  const RegisteredMethod* reg = Find(class_name, method, level);
  return reg == nullptr
             ? 0
             : reg->batch_invocations.load(std::memory_order_relaxed);
}

uint64_t MethodRegistry::batch_row_count(const std::string& class_name,
                                         const std::string& method,
                                         MethodLevel level) const {
  const RegisteredMethod* reg = Find(class_name, method, level);
  return reg == nullptr
             ? 0
             : reg->batch_rows.load(std::memory_order_relaxed);
}

void MethodRegistry::ResetCounters() {
  // Relaxed, like every bump of these counters: the reset runs while
  // no query is in flight, and an implicit assignment would pay a
  // seq_cst fence for ordering nobody reads.
  for (auto& [key, method] : methods_) {
    method.invocations.store(0, std::memory_order_relaxed);
    method.batch_invocations.store(0, std::memory_order_relaxed);
    method.batch_rows.store(0, std::memory_order_relaxed);
  }
  total_invocations_.store(0, std::memory_order_relaxed);
}

}  // namespace vodak
