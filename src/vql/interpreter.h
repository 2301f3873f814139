#ifndef VODAK_VQL_INTERPRETER_H_
#define VODAK_VQL_INTERPRETER_H_

#include "common/result.h"
#include "expr/expr_eval.h"
#include "vql/ast.h"

namespace vodak {
namespace vql {

/// Reference evaluator (DESIGN.md S9): straightforward nested-loop
/// evaluation of a bound query, no optimization whatsoever. Ranges are
/// iterated left to right so dependent ranges see earlier bindings; at
/// the innermost binding WHERE and ACCESS are evaluated row at a time
/// through Eval/EvalPredicate, whose method calls use the scalar bodies.
/// The interpreter shares no batched-evaluation, batch-dispatch or
/// executor code with the physical plans it checks
/// (docs/ARCHITECTURE.md §"The oracles").
///
/// The interpreter defines the *meaning* of a VQL query; every optimized
/// plan must return exactly the set this returns. The integration and
/// property test suites enforce that.
class Interpreter {
 public:
  struct Options {
    /// Ignored: evaluation is always row at a time. Kept only because
    /// perfbench's oracle still assigns it; it goes with that
    /// assignment.
    bool row_mode = true;
    /// Ignored: evaluation is always serial. Kept only because
    /// perfbench's oracle still assigns it; it goes with that
    /// assignment.
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

 private:
  ExprEvaluator evaluator_;
};

}  // namespace vql
}  // namespace vodak

#endif  // VODAK_VQL_INTERPRETER_H_
