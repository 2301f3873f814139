#include "optimizer/cost_model.h"

#include <algorithm>
#include <cmath>

namespace vodak {
namespace opt {

using algebra::LogicalNode;
using algebra::LogicalOp;

namespace {
constexpr double kOpCost = 0.1;        // built-in operator application
constexpr double kTupleEmitCost = 1.0; // producing one output tuple
constexpr double kHashCostFactor = 1.5;
constexpr double kDefaultSetFanout = 10.0;
constexpr double kDefaultEqSelectivity = 0.05;
constexpr double kDefaultRangeSelectivity = 0.3;
}  // namespace

double CostModel::BatchCount(double rows) {
  return std::max(1.0, std::ceil(rows / kAssumedBatchRows));
}

CostModel::CostModel(const Catalog* catalog, const ObjectStore* store,
                     const MethodRegistry* methods,
                     std::vector<MethodStatsProvider> providers)
    : catalog_(catalog),
      store_(store),
      methods_(methods),
      providers_(std::move(providers)) {}

double CostModel::ExtentCardinality(const std::string& class_name) const {
  const ClassDef* cls = catalog_->FindClass(class_name);
  if (cls == nullptr) return 1.0;
  // Deliberately the latest epoch, not a query's pinned snapshot: a
  // cardinality statistic steers plan choice, it never touches result
  // correctness, and the live count is O(1) where a snapshot count
  // would pass over every row at planning time.
  auto size = store_->ExtentSize(cls->class_id(), kEpochLatest);
  return size.ok() ? static_cast<double>(size.value()) : 1.0;
}

MethodStats CostModel::StatsForCall(const ExprRef& call) const {
  std::string class_name;
  std::string method;
  MethodLevel level;
  if (call->kind() == ExprKind::kClassMethodCall) {
    class_name = call->name();
    method = call->method();
    level = MethodLevel::kClassObject;
  } else {
    VODAK_DCHECK(call->kind() == ExprKind::kMethodCall);
    method = call->method();
    level = MethodLevel::kInstance;
  }
  for (const auto& provider : providers_) {
    auto stats = provider(class_name, method, level, call->args());
    if (stats.has_value()) return *stats;
  }
  const MethodRegistry::RegisteredMethod* reg =
      class_name.empty() ? methods_->FindAny(method, level)
                         : methods_->Find(class_name, method, level);
  if (reg == nullptr && !class_name.empty()) {
    reg = methods_->FindAny(method, level);
  }
  if (reg == nullptr) return MethodStats{};
  return MethodStats{reg->cost.per_call, reg->cost.selectivity,
                     reg->cost.fanout, reg->cost.batch_setup};
}

double CostModel::ExprCost(const ExprRef& expr) const {
  switch (expr->kind()) {
    case ExprKind::kConst:
    case ExprKind::kVar:
      return 0.0;
    case ExprKind::kProperty:
      // Set-lifted access costs one read per member (§2.3's D.sections).
      return ExprCost(expr->base()) + std::max(1.0, Fanout(expr->base()));
    case ExprKind::kMethodCall: {
      double cost = ExprCost(expr->base());
      for (const auto& arg : expr->args()) cost += ExprCost(arg);
      MethodStats stats = StatsForCall(expr);
      // Per-receiver price under the set-at-a-time ABI: the marginal
      // per-row work plus this row's share of the per-batch setup.
      double per_row =
          stats.per_call + stats.batch_setup / kAssumedBatchRows;
      return cost + per_row * std::max(1.0, Fanout(expr->base()));
    }
    case ExprKind::kClassMethodCall: {
      double cost = 0.0;
      for (const auto& arg : expr->args()) cost += ExprCost(arg);
      // One full dispatch: as a method-scan parameter the call runs once
      // per query, and inside a per-row predicate the constant-argument
      // batch implementations dedup it to one probe per batch anyway.
      MethodStats stats = StatsForCall(expr);
      return cost + stats.per_call + stats.batch_setup;
    }
    case ExprKind::kBinary:
      return ExprCost(expr->lhs()) + ExprCost(expr->rhs()) + kOpCost;
    case ExprKind::kUnary:
      return ExprCost(expr->operand()) + kOpCost;
    case ExprKind::kTupleCtor: {
      double cost = kOpCost;
      for (const auto& [name, fe] : expr->fields()) cost += ExprCost(fe);
      return cost;
    }
    case ExprKind::kSetCtor: {
      double cost = kOpCost;
      for (const auto& el : expr->args()) cost += ExprCost(el);
      return cost;
    }
  }
  return kOpCost;
}

double CostModel::Selectivity(const ExprRef& cond) const {
  switch (cond->kind()) {
    case ExprKind::kConst:
      if (cond->value().is_bool()) {
        return cond->value().AsBool() ? 1.0 : 0.0;
      }
      return 1.0;
    case ExprKind::kBinary: {
      BinOp op = cond->bin_op();
      if (op == BinOp::kAnd) {
        return Selectivity(cond->lhs()) * Selectivity(cond->rhs());
      }
      if (op == BinOp::kOr) {
        double a = Selectivity(cond->lhs());
        double b = Selectivity(cond->rhs());
        return a + b - a * b;
      }
      if (op == BinOp::kEq) {
        // A boolean method comparison `m(x) == TRUE` has the method's
        // selectivity.
        if (cond->lhs()->kind() == ExprKind::kMethodCall) {
          return StatsForCall(cond->lhs()).selectivity;
        }
        if (cond->rhs()->kind() == ExprKind::kMethodCall) {
          return StatsForCall(cond->rhs()).selectivity;
        }
        return kDefaultEqSelectivity;
      }
      if (op == BinOp::kNe) return 1.0 - kDefaultEqSelectivity;
      if (op == BinOp::kIsIn) {
        // |rhs| over the cardinality of the lhs domain when known.
        double fan = Fanout(cond->rhs());
        std::string cls;
        if (cond->lhs()->kind() == ExprKind::kProperty ||
            cond->lhs()->kind() == ExprKind::kVar) {
          // Domain estimate: total objects of any class is unknown here;
          // fall back to the largest extent as a conservative domain.
          double max_extent = 1.0;
          for (const auto& c : catalog_->classes()) {
            max_extent =
                std::max(max_extent, ExtentCardinality(c->name()));
          }
          return std::min(1.0, fan / max_extent);
        }
        return std::min(1.0, fan / 100.0);
      }
      if (op == BinOp::kIsSubset) return 0.2;
      return kDefaultRangeSelectivity;
    }
    case ExprKind::kUnary:
      if (cond->un_op() == UnOp::kNot) {
        return 1.0 - Selectivity(cond->operand());
      }
      return 0.5;
    case ExprKind::kMethodCall:
      return StatsForCall(cond).selectivity;
    default:
      return 0.5;
  }
}

double CostModel::Fanout(const ExprRef& expr) const {
  switch (expr->kind()) {
    case ExprKind::kConst:
      return expr->value().is_set()
                 ? static_cast<double>(expr->value().AsSet().size())
                 : 1.0;
    case ExprKind::kVar:
      return 1.0;
    case ExprKind::kProperty: {
      // Per-element fanout of a (possibly set-lifted) property access.
      double base = Fanout(expr->base());
      for (const auto& provider : providers_) {
        // The "$property" pseudo-class marks property (not method)
        // statistics queries so providers can tell the two apart.
        auto stats =
            provider("$property", expr->name(), MethodLevel::kInstance, {});
        if (stats.has_value()) return base * stats->fanout;
      }
      // No provider: consult the catalog for the property's declared
      // type — scalar properties have fanout 1, set-valued ones default
      // to kDefaultSetFanout.
      for (const auto& cls : catalog_->classes()) {
        const PropertyDef* prop = cls->FindProperty(expr->name());
        if (prop != nullptr) {
          return prop->type->kind() == TypeKind::kSet
                     ? base * kDefaultSetFanout
                     : base;
        }
      }
      return base;
    }
    case ExprKind::kMethodCall:
      return Fanout(expr->base()) * StatsForCall(expr).fanout;
    case ExprKind::kClassMethodCall:
      return StatsForCall(expr).fanout;
    case ExprKind::kBinary: {
      if (expr->bin_op() == BinOp::kUnion) {
        return Fanout(expr->lhs()) + Fanout(expr->rhs());
      }
      if (expr->bin_op() == BinOp::kIntersect) {
        return std::min(Fanout(expr->lhs()), Fanout(expr->rhs()));
      }
      if (expr->bin_op() == BinOp::kDiff) return Fanout(expr->lhs());
      return 1.0;
    }
    case ExprKind::kSetCtor:
      return static_cast<double>(expr->args().size());
    default:
      return 1.0;
  }
}

double CostModel::EstimateCardinality(
    const LogicalNode& node, const std::vector<double>& child_cards) const {
  switch (node.op()) {
    case LogicalOp::kGet:
      return ExtentCardinality(node.class_name());
    case LogicalOp::kExprSource:
      return std::max(0.0, Fanout(node.expr()));
    case LogicalOp::kSelect:
      return child_cards[0] * Selectivity(node.expr());
    case LogicalOp::kJoin:
      return child_cards[0] * child_cards[1] * Selectivity(node.expr());
    case LogicalOp::kNaturalJoin:
      return 0.8 * std::min(child_cards[0], child_cards[1]);
    case LogicalOp::kMap:
      return child_cards[0];
    case LogicalOp::kFlat:
      return child_cards[0] * std::max(0.0, Fanout(node.expr()));
    case LogicalOp::kProject:
      return 0.9 * child_cards[0];
    case LogicalOp::kGroupRef:
      return 1.0;  // resolved by the memo, never asked directly
  }
  return 1.0;
}

double CostModel::LocalCost(const LogicalNode& node,
                            const std::vector<double>& child_cards) const {
  // Batch-aware operator pricing: per-row emit work priced by how the
  // batched operator emits (mark / scatter / dense build / per pair),
  // plus kBatchOverheadCost per NextBatch call the operator makes over
  // its input (BatchCount of the consumed rows). See the class comment
  // and docs/ARCHITECTURE.md §"Cost model".
  switch (node.op()) {
    case LogicalOp::kGet: {
      // Column-at-a-time extent slicing: one emitted value per row plus
      // the per-batch fill overhead.
      const double rows = ExtentCardinality(node.class_name());
      return kTupleEmitCost * rows + kBatchOverheadCost * BatchCount(rows);
    }
    case LogicalOp::kExprSource: {
      const double rows = std::max(0.0, Fanout(node.expr()));
      return ExprCost(node.expr()) + kTupleEmitCost * rows +
             kBatchOverheadCost * BatchCount(rows);
    }
    case LogicalOp::kSelect:
      // The production filter *marks* survivors (selection vector):
      // predicate evaluation per input row, a mark per surviving row,
      // no value moves. (The compacting baseline would pay
      // kCompactMoveCost per survivor per filter instead — priced out,
      // which is exactly why marking is the default.)
      return child_cards[0] * ExprCost(node.expr()) +
             child_cards[0] * Selectivity(node.expr()) * kMarkCostPerRow +
             kBatchOverheadCost * BatchCount(child_cards[0]);
    case LogicalOp::kJoin: {
      const ExprRef& cond = node.expr();
      // Hash join applies to bare-variable equality conditions; the
      // executor makes the same deterministic choice.
      bool hashable = cond->kind() == ExprKind::kBinary &&
                      cond->bin_op() == BinOp::kEq &&
                      cond->lhs()->kind() == ExprKind::kVar &&
                      cond->rhs()->kind() == ExprKind::kVar;
      if (hashable) {
        // Probe side probes per row through the selection view; the
        // build side is a density boundary — each build row is
        // compacted once into the table on top of its hash insert.
        return kHashCostFactor * (child_cards[0] + child_cards[1]) +
               kCompactMoveCost * child_cards[1] +
               kBatchOverheadCost *
                   (BatchCount(child_cards[0]) + BatchCount(child_cards[1]));
      }
      // Nested loop: per-pair pricing.
      double per_pair = cond->kind() == ExprKind::kConst
                            ? kOpCost
                            : ExprCost(cond) + kOpCost;
      return child_cards[0] * child_cards[1] * per_pair;
    }
    case LogicalOp::kNaturalJoin:
      return kHashCostFactor * (child_cards[0] + child_cards[1]) +
             kCompactMoveCost * child_cards[1] +
             kBatchOverheadCost *
                 (BatchCount(child_cards[0]) + BatchCount(child_cards[1]));
    case LogicalOp::kMap:
      // Scatter of the computed column + wholesale pass-through moves.
      return child_cards[0] * (ExprCost(node.expr()) + kOpCost) +
             kBatchOverheadCost * BatchCount(child_cards[0]);
    case LogicalOp::kFlat:
      return child_cards[0] * (ExprCost(node.expr()) + kOpCost) +
             child_cards[0] * std::max(0.0, Fanout(node.expr())) *
                 kTupleEmitCost +
             kBatchOverheadCost * BatchCount(child_cards[0]);
    case LogicalOp::kProject:
      // Dense by construction: hash + emit per live input row.
      return child_cards[0] * kTupleEmitCost +
             kBatchOverheadCost * BatchCount(child_cards[0]);
    case LogicalOp::kGroupRef:
      return 0.0;
  }
  return 0.0;
}

}  // namespace opt
}  // namespace vodak
