#ifndef VODAK_VQL_INTERPRETER_H_
#define VODAK_VQL_INTERPRETER_H_

#include "common/result.h"
#include "exec/row_batch.h"
#include "expr/expr_eval.h"
#include "vql/ast.h"

namespace vodak {
namespace vql {

/// Reference evaluator (DESIGN.md S9): straightforward nested-loop
/// evaluation of a bound query, no optimization whatsoever. Ranges are
/// iterated left to right so dependent ranges see earlier bindings; the
/// terminal WHERE / ACCESS evaluation is driven through the batched
/// expression entry points, buffering complete bindings and flushing
/// them a batch at a time.
///
/// The interpreter defines the *meaning* of a VQL query; every optimized
/// plan must return exactly the set this returns. The integration and
/// property test suites enforce that.
class Interpreter {
 public:
  /// Evaluation knobs. The defaults are the batched serial interpreter;
  /// the switches exist for oracle independence and for routing the
  /// naive evaluation through the parallel worker infrastructure.
  struct Options {
    /// Evaluate WHERE/ACCESS row at a time through Eval/EvalPredicate,
    /// bypassing EvalBatch entirely — including the set-at-a-time
    /// method ABI, whose scalar counterparts are used instead. This is
    /// the fully independent oracle: it shares no batched-evaluation or
    /// batch-dispatch code with the physical executor, so the parity
    /// sweeps can catch bugs in EvalBatch and in native batch method
    /// implementations alike (docs/ARCHITECTURE.md §"The oracles").
    bool row_mode = false;
    /// Worker threads for the outermost extent range (>1 splits it into
    /// morsels of at most exec::kDefaultMorselSize rows, claimed from an
    /// atomic cursor on a pool made for the call; inner ranges stay
    /// nested per worker). 1 = serial, 0 = hardware concurrency.
    /// Parallelism requires the first FROM range to be a class extent;
    /// otherwise evaluation silently stays serial.
    size_t threads = 1;
    /// The epoch every store read resolves at — the query's pinned
    /// snapshot. The kEpochLatest default reads live state, which is
    /// only safe while no writer runs; Database::Submit and the oracle
    /// replay in the MVCC stress harness always set it.
    Epoch snapshot_epoch = kEpochLatest;
  };

  Interpreter(const Catalog* catalog, ObjectStore* store,
              MethodRegistry* methods)
      : evaluator_(catalog, store, methods) {}

  /// Runs the query; the result is a SET of access-expression values
  /// (VQL results have set semantics like the §4.1 algebra).
  Result<Value> Run(const BoundQuery& query) const {
    return Run(query, Options());
  }
  Result<Value> Run(const BoundQuery& query,
                    const Options& options) const;

  const ExprEvaluator& evaluator() const { return evaluator_; }

 private:
  /// Buffered complete range bindings awaiting batched evaluation.
  struct Pending {
    std::vector<std::string> names;  // range variables, binding order
    exec::RowBatch batch;            // one column per name
  };

  Status RunRanges(const BoundQuery& query, const Options& options,
                   size_t index, Env* env, Pending* pending,
                   std::vector<Value>* out) const;
  Status Flush(const BoundQuery& query, const Options& options,
               Pending* pending, std::vector<Value>* out) const;
  /// Serial evaluation of ranges [first_range, ...] under `env`.
  Status RunFrom(const BoundQuery& query, const Options& options,
                 size_t first_range, Env env,
                 std::vector<Value>* out) const;
  /// Morsel-parallel evaluation of the outermost extent range.
  Status RunParallel(const BoundQuery& query, const Options& options,
                     const std::vector<Oid>& extent, size_t threads,
                     std::vector<Value>* out) const;

  ExprEvaluator evaluator_;
};

}  // namespace vql
}  // namespace vodak

#endif  // VODAK_VQL_INTERPRETER_H_
