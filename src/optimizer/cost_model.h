#ifndef VODAK_OPTIMIZER_COST_MODEL_H_
#define VODAK_OPTIMIZER_COST_MODEL_H_

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "algebra/logical.h"
#include "methods/method_registry.h"

namespace vodak {

namespace opt {

/// Argument-aware method statistics, e.g. the selectivity of
/// `contains_string('implementation')` derived from the inverted index's
/// document frequency. Providers are installed per schema (the paper's
/// per-schema optimizer generation, §7); the first provider returning a
/// value wins, the registry's static MethodCost annotation is the
/// fallback.
struct MethodStats {
  /// Marginal per-row cost of one invocation under the set-at-a-time
  /// ABI (the whole per-call cost for scalar-only methods).
  double per_call = 1.0;
  double selectivity = 0.5;
  double fanout = 1.0;
  /// Per-dispatch setup a batch implementation pays once per batch
  /// (index probe, tokenization); see MethodCost::batch_setup.
  double batch_setup = 0.0;
};

using MethodStatsProvider = std::function<std::optional<MethodStats>(
    const std::string& class_name, const std::string& method,
    MethodLevel level, const std::vector<ExprRef>& args)>;

/// The "simple cost model" of §7, with the §2.3 refinement the paper
/// demands: attribute access has uniform unit cost, while each method
/// carries its own per-call cost, selectivity and fanout. Costs are
/// abstract units (1.0 = one property read).
///
/// The model prices the *batched* executor: per-row instance-method
/// calls amortize their batch_setup over kAssumedBatchRows (the
/// executor's ~1024-row batches dedup/share the setup across rows),
/// while class-object calls are priced as one full dispatch — they are
/// either method-scan parameters (invoked once per query) or deduped to
/// one probe per batch by the constant-argument batch implementations.
///
/// Operator costs are split the same way (docs/ARCHITECTURE.md §"Cost
/// model"): each operator pays a per-batch term — kBatchOverheadCost
/// per NextBatch call it makes, i.e. per ceil(rows / kAssumedBatchRows)
/// — plus per-row emit work priced by *how* the batched operator
/// actually emits. A Filter marks survivors in the selection vector
/// (kMarkCostPerRow, far below a tuple emit; a compacting filter would
/// instead pay kCompactMoveCost per surviving row per filter). A
/// hash-join build crosses a
/// density boundary, so its build rows pay one kCompactMoveCost on top
/// of the hash insert. Nested-loop joins and set ops keep plain
/// per-pair / per-row pricing.
class CostModel {
 public:
  /// Rows the executor's NextBatch pipeline typically moves per batch
  /// (mirrors exec::kDefaultBatchSize without a layering dependency).
  static constexpr double kAssumedBatchRows = 1024.0;
  /// Fixed cost of one NextBatch call: virtual dispatch, batch reset,
  /// per-batch evaluator setup. Paid once per ~kAssumedBatchRows rows,
  /// not per row — the whole point of the vectorized pipeline.
  static constexpr double kBatchOverheadCost = 4.0;
  /// Marking one surviving row in a batch's selection vector (the
  /// production filter's per-row emit: no value moves).
  static constexpr double kMarkCostPerRow = 0.02;
  /// Moving one row's values across a density boundary (Compact() at
  /// the hash-join build / row hand-off; also what the compacting
  /// filter baseline pays per surviving row per filter).
  static constexpr double kCompactMoveCost = 0.5;

  /// NextBatch calls needed for `rows` output rows: ceil(rows /
  /// kAssumedBatchRows), at least 1 (every operator pays its end-of-
  /// stream call even when empty).
  static double BatchCount(double rows);
  CostModel(const Catalog* catalog, const ObjectStore* store,
            const MethodRegistry* methods,
            std::vector<MethodStatsProvider> providers = {});

  /// |extension(class)|.
  double ExtentCardinality(const std::string& class_name) const;

  /// Estimated output cardinality of `node` given child cardinalities.
  double EstimateCardinality(const algebra::LogicalNode& node,
                             const std::vector<double>& child_cards) const;

  /// Local processing cost of `node` (children already produced).
  double LocalCost(const algebra::LogicalNode& node,
                   const std::vector<double>& child_cards) const;

  /// Per-tuple evaluation cost of an expression: 1.0 per property hop,
  /// the method's per-call cost per method invocation, epsilon for
  /// built-in operators.
  double ExprCost(const ExprRef& expr) const;

  /// Selectivity of a boolean condition (product over conjuncts).
  double Selectivity(const ExprRef& cond) const;

  /// Expected cardinality of a set-valued expression (flat/expr_source).
  double Fanout(const ExprRef& expr) const;

  /// Statistics for one method call expression (kMethodCall or
  /// kClassMethodCall), consulting providers then the registry.
  MethodStats StatsForCall(const ExprRef& call) const;

 private:
  const Catalog* catalog_;
  const ObjectStore* store_;
  const MethodRegistry* methods_;
  std::vector<MethodStatsProvider> providers_;
};

}  // namespace opt
}  // namespace vodak

#endif  // VODAK_OPTIMIZER_COST_MODEL_H_
