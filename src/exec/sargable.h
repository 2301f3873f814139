// The shared sargable-predicate classifier: one recognizer for the
// compare shape both consumers act on — the physical Filter's
// shared-operand compares (exec/physical.cc) and zone-map segment
// pruning (storage layer). Keeping a single classifier keeps the two
// layers from drifting apart on what "sargable" means: a compare the
// Filter runs against a once-read operand column is the same shape a
// segment scan can refute from zone maps.
#ifndef VODAK_EXEC_SARGABLE_H_
#define VODAK_EXEC_SARGABLE_H_

#include <optional>
#include <string>
#include <vector>

#include "expr/expr.h"
#include "schema/catalog.h"
#include "storage/segment_store.h"

namespace vodak {
namespace exec {

/// One recognized compare leaf: a total-order compare
/// (ExprEvaluator::IsLowerableCompare) with exactly one constant side.
/// `op` is the operator as written; `const_lhs` records which side the
/// constant was on so consumers can either preserve the written form
/// (the Filter's compares do) or normalize it.
struct SargableCompare {
  ExprRef operand;   // the non-constant side (kVar, property hop, ...)
  ExprRef constant;  // kConst
  BinOp op = BinOp::kEq;
  bool const_lhs = false;
};

/// Classifies `e` as a sargable compare; nullopt when the shape is
/// anything else (two constants, no constant, non-total-order op).
std::optional<SargableCompare> ClassifySargableCompare(const ExprRef& e);

/// The compare with the column moved to the left-hand side:
/// `5 < p.x` normalizes to `p.x > 5`.
BinOp NormalizeCompareToLhs(BinOp op, bool const_lhs);

/// Extracts the zone-map-prunable conjuncts of a filter condition over
/// scan variable `scan_ref`: AND-conjuncts (top-level kAnd trees only
/// — OR/NOT subtrees are skipped, conservatively) whose leaves are
/// sargable compares of one property hop off `scan_ref` against a
/// constant, resolved to property slots through `cls`. Every returned
/// predicate is normalized column-on-LHS, the form
/// storage::ZoneRefutes prices.
std::vector<storage::SlotPredicate> CollectSargablePredicates(
    const ExprRef& cond, const std::string& scan_ref, const ClassDef& cls);

}  // namespace exec
}  // namespace vodak

#endif  // VODAK_EXEC_SARGABLE_H_
