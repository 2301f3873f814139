// Method registry: implementation dispatch for instance/class-object
// methods, including the set-at-a-time (batch) method ABI. The ABI and
// its masking rules are documented in docs/ARCHITECTURE.md §"The batch
// method ABI".
#ifndef VODAK_METHODS_METHOD_REGISTRY_H_
#define VODAK_METHODS_METHOD_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "objstore/object_store.h"
#include "schema/catalog.h"
#include "types/value.h"

namespace vodak {

class MethodRegistry;

/// One value per row of a batch. This is the unit of set-at-a-time
/// method dispatch and of batched expression evaluation (expr/expr_eval.h
/// builds its batch environments from these columns).
using ValueColumn = std::vector<Value>;

/// Everything a method body may touch. Native method implementations
/// receive this so that internally-encoded methods (like
/// `Paragraph::document`) can read properties and invoke other methods,
/// while external methods typically capture their own state (an index)
/// in the closure instead.
struct MethodCallContext {
  const Catalog* catalog = nullptr;
  ObjectStore* store = nullptr;
  MethodRegistry* methods = nullptr;
  /// Recursion guard for method bodies calling methods.
  int depth = 0;
  /// Epoch every store read inside the method resolves at — inherited
  /// from the calling query's pinned snapshot (trailing field so the
  /// existing {catalog, store, methods, depth} brace-inits default it).
  Epoch snapshot_epoch = kEpochLatest;
};

/// A native method body. `self` is the receiver instance Oid for
/// instance methods and the null Value for class-object methods.
using NativeFn = std::function<Result<Value>(
    MethodCallContext&, const Value& self, const std::vector<Value>& args)>;

/// A native set-at-a-time method body: one dispatch evaluates the method
/// for a whole batch of rows, so an external implementation can amortize
/// its fixed work (index probes, argument tokenization, property-column
/// reads, stats bumps) across the batch.
///
/// Contract (see docs/ARCHITECTURE.md):
///  - Instance methods: `selves` holds `num_rows` receiver Oid values —
///    never NULL and all of the same class (the registry splits
///    heterogeneous batches into class-homogeneous runs and strips NULL
///    receivers before dispatch, so masked rows can never reach a body).
///    Rows masked out upstream — by an AND/OR short-circuit or by a
///    RowBatch selection vector — are physically absent from the
///    columns a body receives: the batched evaluator gathers only the
///    live rows into the dense batch it dispatches (docs/ARCHITECTURE.md
///    §"Selection vectors"), so a body never needs to (and cannot)
///    check a selection itself.
///  - Class-object methods: `selves` is empty; `num_rows` gives the
///    batch size.
///  - `args[a][i]` is argument `a` of row `i`; arity is pre-checked.
///  - The body must append exactly `num_rows` results to `*out`, row i's
///    result at position out-size-on-entry + i, and must fail (return a
///    non-OK Status) exactly when the scalar form would fail on at least
///    one row of the batch.
using NativeBatchFn = std::function<Status(
    MethodCallContext&, const ValueColumn& selves, size_t num_rows,
    const std::vector<ValueColumn>& args, ValueColumn* out)>;

/// The paper's implementation dimension (§2.1): internally encoded
/// (kPath covers the `RETURN section.document` style; kNative with
/// `is_external=false` covers other internal code), externally
/// implemented (kNative with `is_external=true`).
enum class MethodImplKind { kNative, kPath };

/// Implementation payload of a registered method.
struct MethodImpl {
  MethodImplKind kind = MethodImplKind::kNative;
  NativeFn native;
  /// Optional set-at-a-time implementation. When present, the batch
  /// entry points dispatch whole (masked, class-homogeneous) batches to
  /// it; when absent they fall back to a row loop over `native`/`path`.
  NativeBatchFn native_batch;
  /// For kPath: the property chain, e.g. {"section", "document"}.
  std::vector<std::string> path;
  /// Marks the §2.1 external-implementation category (IR functions etc.).
  bool is_external = false;
};

/// Optimizer-facing cost annotations (§2.3: "attributes are assumed to be
/// obtained at uniform access cost. This is not true for methods").
struct MethodCost {
  /// Abstract cost units of the *marginal* per-row work of one
  /// invocation (property read = 1.0). For methods without a batch
  /// implementation this is the whole per-call cost, exactly as before
  /// the set-at-a-time ABI.
  double per_call = 1.0;
  /// For boolean methods: fraction of receivers evaluating to TRUE.
  double selectivity = 0.5;
  /// For set-valued methods: expected result cardinality.
  double fanout = 1.0;
  /// Fixed per-dispatch setup cost that a batch implementation pays once
  /// per batch and amortizes across its rows (index probe, query
  /// tokenization, property-slot resolution). 0 for scalar-only methods;
  /// the cost model divides it by the assumed batch size when pricing
  /// per-row method calls under the batch ABI.
  double batch_setup = 0.0;
};

/// Registry of method implementations and runtime statistics, keyed by
/// (class name, level, method name). The registry performs dispatch and
/// counts invocations; counters feed the benchmark harness.
class MethodRegistry {
 public:
  struct RegisteredMethod {
    MethodSig sig;
    MethodImpl impl;
    MethodCost cost;
    /// Dispatches of the implementation. A scalar dispatch counts 1 per
    /// row; a native batch dispatch counts 1 per *batch* — that is the
    /// observable amortization the method_batch_test counters assert.
    /// Relaxed atomic: dispatch is counted from concurrent drains.
    mutable std::atomic<uint64_t> invocations{0};
    /// Set-at-a-time dispatches (one per batch handed to native_batch).
    mutable std::atomic<uint64_t> batch_invocations{0};
    /// Rows evaluated through native_batch dispatches.
    mutable std::atomic<uint64_t> batch_rows{0};

    RegisteredMethod() = default;
    // Moved once at registration time (atomics are not movable).
    RegisteredMethod(RegisteredMethod&& other) noexcept
        : sig(std::move(other.sig)),
          impl(std::move(other.impl)),
          cost(other.cost),
          invocations(
              other.invocations.load(std::memory_order_relaxed)),
          batch_invocations(
              other.batch_invocations.load(std::memory_order_relaxed)),
          batch_rows(other.batch_rows.load(std::memory_order_relaxed)) {}
  };

  MethodRegistry() = default;
  MethodRegistry(const MethodRegistry&) = delete;
  MethodRegistry& operator=(const MethodRegistry&) = delete;

  /// Registers an implementation for a method already declared in the
  /// catalog class `class_name`.
  Status Register(const std::string& class_name, MethodSig sig,
                  MethodImpl impl, MethodCost cost = MethodCost{});

  const RegisteredMethod* Find(const std::string& class_name,
                               const std::string& method,
                               MethodLevel level) const;

  /// Replaces the cost annotation of a registered method. Called after
  /// data load to calibrate the optimizer's statistics to the corpus.
  Status SetCost(const std::string& class_name, const std::string& method,
                 MethodLevel level, MethodCost cost);

  /// First registered method with this name at this level, regardless of
  /// class. Used by the cost model when the receiver class cannot be
  /// inferred from an expression alone.
  const RegisteredMethod* FindAny(const std::string& method,
                                  MethodLevel level) const;

  /// Dispatches an instance method on receiver `self`.
  Result<Value> InvokeInstance(MethodCallContext& ctx, Oid self,
                               const std::string& method,
                               const std::vector<Value>& args) const;

  /// Dispatches a class-object (OWNTYPE) method.
  Result<Value> InvokeClass(MethodCallContext& ctx,
                            const std::string& class_name,
                            const std::string& method,
                            const std::vector<Value>& args) const;

  /// Set-at-a-time dispatch of an instance method: appends one result
  /// per row of `selves` to `*out`, in row order, semantically identical
  /// to calling InvokeInstance row by row except that rows whose
  /// receiver is NULL (the null Value or a null Oid) yield NIL *without
  /// invoking the method* — the callers' mask/short-circuit machinery
  /// (expr/expr_eval_batch.cc) represents masked-out rows that way.
  /// `args` holds one column per declared parameter, each selves.size()
  /// rows long. Consecutive same-class receivers with a native_batch
  /// implementation are dispatched as one batch; everything else falls
  /// back to a per-row scalar dispatch that preserves today's semantics
  /// (and per-row invocation counts) exactly.
  Status InvokeInstanceBatch(MethodCallContext& ctx,
                             const ValueColumn& selves,
                             const std::string& method,
                             const std::vector<ValueColumn>& args,
                             ValueColumn* out) const;

  /// Set-at-a-time dispatch of a class-object method over `num_rows`
  /// rows of argument columns. A native_batch implementation receives
  /// the whole batch at once (and typically dedups repeated argument
  /// rows into one external probe); otherwise each row is dispatched
  /// through the scalar implementation.
  Status InvokeClassBatch(MethodCallContext& ctx,
                          const std::string& class_name,
                          const std::string& method, size_t num_rows,
                          const std::vector<ValueColumn>& args,
                          ValueColumn* out) const;

  uint64_t invocation_count(const std::string& class_name,
                            const std::string& method,
                            MethodLevel level) const;
  /// Set-at-a-time dispatches (batches handed to a native_batch body).
  uint64_t batch_invocation_count(const std::string& class_name,
                                  const std::string& method,
                                  MethodLevel level) const;
  /// Rows evaluated through native_batch dispatches.
  uint64_t batch_row_count(const std::string& class_name,
                           const std::string& method,
                           MethodLevel level) const;
  void ResetCounters();

  /// Total method invocations since construction/reset.
  uint64_t total_invocations() const {
    return total_invocations_.load(std::memory_order_relaxed);
  }

 private:
  struct Key {
    std::string class_name;
    std::string method;
    MethodLevel level;
    bool operator<(const Key& o) const {
      if (class_name != o.class_name) return class_name < o.class_name;
      if (method != o.method) return method < o.method;
      return level < o.level;
    }
  };

  Result<Value> Dispatch(MethodCallContext& ctx,
                         const RegisteredMethod& method, const Value& self,
                         const std::vector<Value>& args) const;

  /// One class-homogeneous run of a batch dispatch: rows [begin, end) of
  /// selves/args all have class `reg`. Uses native_batch when available,
  /// otherwise the scalar row loop.
  Status DispatchRun(MethodCallContext& ctx, const RegisteredMethod& reg,
                     const ValueColumn& selves,
                     const std::vector<ValueColumn>& args, size_t begin,
                     size_t end, ValueColumn* out) const;

  Result<Value> EvalPath(MethodCallContext& ctx,
                         const std::vector<std::string>& path,
                         Oid self) const;

  std::map<Key, RegisteredMethod> methods_;
  mutable std::atomic<uint64_t> total_invocations_{0};
};

/// Resolves a property of `oid` by name through the catalog and reads it
/// from the store at epoch `at`. Shared helper for path methods, the
/// interpreter and the physical operators.
Result<Value> ReadPropertyByName(const Catalog& catalog,
                                 const ObjectStore& store, Oid oid,
                                 const std::string& property,
                                 Epoch at = kEpochLatest);

}  // namespace vodak

#endif  // VODAK_METHODS_METHOD_REGISTRY_H_
