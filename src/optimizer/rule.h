#ifndef VODAK_OPTIMIZER_RULE_H_
#define VODAK_OPTIMIZER_RULE_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "algebra/logical.h"

namespace vodak {
namespace opt {

/// Operator pattern for rule matching, the Volcano style (§6.1): patterns
/// name operators and input positions; a pattern node without an operator
/// is a wildcard that binds a whole memo group (`?A` / `?A1` in the
/// paper's rules). Contents of operator *arguments* (conditions,
/// expressions) are inspected in the rule's Apply — Volcano's "condition
/// code".
struct Pattern {
  std::optional<algebra::LogicalOp> op;
  std::vector<Pattern> children;
  /// Matches any single operator (inputs bound as groups). Used by the
  /// knowledge-derived parameter-rewrite rules, which apply to every
  /// operator carrying an expression argument.
  bool any_operator = false;

  /// Wildcard: matches any group.
  static Pattern Any() { return Pattern{}; }
  static Pattern Op(algebra::LogicalOp op, std::vector<Pattern> children) {
    return Pattern{op, std::move(children), false};
  }
  /// Any single operator node.
  static Pattern AnyOp() { return Pattern{std::nullopt, {}, true}; }

  bool is_wildcard() const { return !op.has_value() && !any_operator; }
  /// Number of operator levels (wildcard = 0).
  int Depth() const;
};

/// A transformation rule (§4.2 / §6.1): rewrites a logical expression
/// into equivalent logical expressions. Bidirectional equivalences are
/// registered as two rules. Rules derived from query≡method knowledge
/// behave like the paper's implementation rules: directional and flagged
/// apply-once (the paper's ⟶! marker) to prevent re-derivation loops.
class TransformationRule {
 public:
  virtual ~TransformationRule() = default;

  virtual std::string name() const = 0;
  virtual const Pattern& pattern() const = 0;
  /// The ⟶! marker: apply at most once per memo expression.
  virtual bool apply_once() const { return false; }

  /// `binding` is a tree matching pattern(): inner nodes are real
  /// operators, wildcard leaves are kGroupRef placeholders. Push zero or
  /// more equivalent trees (over the same placeholders) onto `out`.
  virtual Status Apply(const algebra::AlgebraContext& ctx,
                       const algebra::LogicalRef& binding,
                       std::vector<algebra::LogicalRef>* out) const = 0;
};

using RulePtr = std::shared_ptr<const TransformationRule>;

/// The built-in algebraic rule set: the "well-known rules from relational
/// query optimization" of §6.1 (join commutativity/associativity,
/// interchangeability of selection and join, selection splitting and
/// reordering) plus the rules connecting IS-IN conditions with
/// natural_join / expr_source that the paper uses as "standard query
/// transformations" in the Q⁗→PQ step of §2.3.
std::vector<RulePtr> BuiltinRules();

}  // namespace opt
}  // namespace vodak

#endif  // VODAK_OPTIMIZER_RULE_H_
