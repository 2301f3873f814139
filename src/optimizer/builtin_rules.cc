#include <algorithm>

#include "optimizer/rule.h"

namespace vodak {
namespace opt {

using algebra::AlgebraContext;
using algebra::LogicalNode;
using algebra::LogicalOp;
using algebra::LogicalRef;

namespace {

/// All free variables of `expr` are references of `node`'s schema.
bool CoveredBy(const ExprRef& expr, const LogicalRef& node) {
  for (const std::string& var : expr->FreeVars()) {
    if (!node->HasRef(var)) return false;
  }
  return true;
}

bool IsTrueConst(const ExprRef& e) {
  return e->kind() == ExprKind::kConst && e->value().is_bool() &&
         e->value().AsBool();
}

/// select<c1 AND c2>(X) ⟷ select<c1>(select<c2>(X)), splitting
/// direction. Together with commute + merge this realizes predicate
/// reordering ("interchangeability of selections", §6.1) and exposes
/// conjuncts to the knowledge-derived rules.
class SelectSplitAnd : public TransformationRule {
 public:
  std::string name() const override { return "select-split-and"; }
  const Pattern& pattern() const override {
    static const Pattern kPattern =
        Pattern::Op(LogicalOp::kSelect, {Pattern::Any()});
    return kPattern;
  }
  Status Apply(const AlgebraContext& ctx, const LogicalRef& binding,
               std::vector<LogicalRef>* out) const override {
    const ExprRef& cond = binding->expr();
    if (cond->kind() != ExprKind::kBinary ||
        cond->bin_op() != BinOp::kAnd) {
      return Status::OK();
    }
    VODAK_ASSIGN_OR_RETURN(LogicalRef inner,
                           ctx.Select(cond->rhs(), binding->input(0)));
    VODAK_ASSIGN_OR_RETURN(LogicalRef outer,
                           ctx.Select(cond->lhs(), std::move(inner)));
    out->push_back(std::move(outer));
    return Status::OK();
  }
};

/// select<c1>(select<c2>(X)) → select<c1 AND c2>(X).
class SelectMergeAnd : public TransformationRule {
 public:
  std::string name() const override { return "select-merge-and"; }
  const Pattern& pattern() const override {
    static const Pattern kPattern = Pattern::Op(
        LogicalOp::kSelect,
        {Pattern::Op(LogicalOp::kSelect, {Pattern::Any()})});
    return kPattern;
  }
  Status Apply(const AlgebraContext& ctx, const LogicalRef& binding,
               std::vector<LogicalRef>* out) const override {
    ExprRef merged = Expr::Binary(BinOp::kAnd, binding->expr(),
                                  binding->input(0)->expr());
    VODAK_ASSIGN_OR_RETURN(
        LogicalRef result,
        ctx.Select(std::move(merged), binding->input(0)->input(0)));
    out->push_back(std::move(result));
    return Status::OK();
  }
};

/// select<c1>(select<c2>(X)) → select<c2>(select<c1>(X)). The
/// cost-relevant freedom for expensive method predicates ([14] in §2.3).
class SelectCommute : public TransformationRule {
 public:
  std::string name() const override { return "select-commute"; }
  const Pattern& pattern() const override {
    static const Pattern kPattern = Pattern::Op(
        LogicalOp::kSelect,
        {Pattern::Op(LogicalOp::kSelect, {Pattern::Any()})});
    return kPattern;
  }
  Status Apply(const AlgebraContext& ctx, const LogicalRef& binding,
               std::vector<LogicalRef>* out) const override {
    VODAK_ASSIGN_OR_RETURN(
        LogicalRef inner,
        ctx.Select(binding->expr(), binding->input(0)->input(0)));
    VODAK_ASSIGN_OR_RETURN(
        LogicalRef outer,
        ctx.Select(binding->input(0)->expr(), std::move(inner)));
    out->push_back(std::move(outer));
    return Status::OK();
  }
};

/// select<c>(join<p>(A, B)) → join<p>(select<c>(A), B) when c only uses
/// references of A (and the mirrored form for B): selection pushdown.
class SelectPushIntoJoin : public TransformationRule {
 public:
  std::string name() const override { return "select-push-into-join"; }
  const Pattern& pattern() const override {
    static const Pattern kPattern = Pattern::Op(
        LogicalOp::kSelect,
        {Pattern::Op(LogicalOp::kJoin, {Pattern::Any(), Pattern::Any()})});
    return kPattern;
  }
  Status Apply(const AlgebraContext& ctx, const LogicalRef& binding,
               std::vector<LogicalRef>* out) const override {
    const ExprRef& cond = binding->expr();
    const LogicalRef& join = binding->input(0);
    if (CoveredBy(cond, join->input(0))) {
      VODAK_ASSIGN_OR_RETURN(LogicalRef pushed,
                             ctx.Select(cond, join->input(0)));
      VODAK_ASSIGN_OR_RETURN(
          LogicalRef result,
          ctx.Join(join->expr(), std::move(pushed), join->input(1)));
      out->push_back(std::move(result));
    }
    if (CoveredBy(cond, join->input(1))) {
      VODAK_ASSIGN_OR_RETURN(LogicalRef pushed,
                             ctx.Select(cond, join->input(1)));
      VODAK_ASSIGN_OR_RETURN(
          LogicalRef result,
          ctx.Join(join->expr(), join->input(0), std::move(pushed)));
      out->push_back(std::move(result));
    }
    return Status::OK();
  }
};

/// join<p>(select<c>(A), B) → select<c>(join<p>(A, B)): pull a selection
/// back above a join (inverse of pushdown; gives exploration symmetry).
class SelectPullFromJoin : public TransformationRule {
 public:
  std::string name() const override { return "select-pull-from-join"; }
  const Pattern& pattern() const override {
    static const Pattern kPattern = Pattern::Op(
        LogicalOp::kJoin,
        {Pattern::Op(LogicalOp::kSelect, {Pattern::Any()}),
         Pattern::Any()});
    return kPattern;
  }
  Status Apply(const AlgebraContext& ctx, const LogicalRef& binding,
               std::vector<LogicalRef>* out) const override {
    const LogicalRef& sel = binding->input(0);
    VODAK_ASSIGN_OR_RETURN(
        LogicalRef join,
        ctx.Join(binding->expr(), sel->input(0), binding->input(1)));
    VODAK_ASSIGN_OR_RETURN(LogicalRef result,
                           ctx.Select(sel->expr(), std::move(join)));
    out->push_back(std::move(result));
    return Status::OK();
  }
};

/// select<c>(join<TRUE>(A, B)) → join<c>(A, B) when c spans both inputs,
/// and join<p≠TRUE>(A, B) → select<p>(join<TRUE>(A, B)) as the reverse.
class SelectJoinCondExchange : public TransformationRule {
 public:
  std::string name() const override { return "select-join-exchange"; }
  const Pattern& pattern() const override {
    static const Pattern kPattern = Pattern::Op(
        LogicalOp::kSelect,
        {Pattern::Op(LogicalOp::kJoin, {Pattern::Any(), Pattern::Any()})});
    return kPattern;
  }
  Status Apply(const AlgebraContext& ctx, const LogicalRef& binding,
               std::vector<LogicalRef>* out) const override {
    const LogicalRef& join = binding->input(0);
    if (!IsTrueConst(join->expr())) return Status::OK();
    VODAK_ASSIGN_OR_RETURN(
        LogicalRef result,
        ctx.Join(binding->expr(), join->input(0), join->input(1)));
    out->push_back(std::move(result));
    return Status::OK();
  }
};

class JoinCondToSelect : public TransformationRule {
 public:
  std::string name() const override { return "join-cond-to-select"; }
  const Pattern& pattern() const override {
    static const Pattern kPattern = Pattern::Op(
        LogicalOp::kJoin, {Pattern::Any(), Pattern::Any()});
    return kPattern;
  }
  Status Apply(const AlgebraContext& ctx, const LogicalRef& binding,
               std::vector<LogicalRef>* out) const override {
    if (IsTrueConst(binding->expr())) return Status::OK();
    VODAK_ASSIGN_OR_RETURN(
        LogicalRef cross,
        ctx.Join(Expr::Const(Value::Bool(true)), binding->input(0),
                 binding->input(1)));
    VODAK_ASSIGN_OR_RETURN(LogicalRef result,
                           ctx.Select(binding->expr(), std::move(cross)));
    out->push_back(std::move(result));
    return Status::OK();
  }
};

/// join<p>(A, B) → join<p>(B, A).
class JoinCommute : public TransformationRule {
 public:
  std::string name() const override { return "join-commute"; }
  const Pattern& pattern() const override {
    static const Pattern kPattern = Pattern::Op(
        LogicalOp::kJoin, {Pattern::Any(), Pattern::Any()});
    return kPattern;
  }
  Status Apply(const AlgebraContext& ctx, const LogicalRef& binding,
               std::vector<LogicalRef>* out) const override {
    VODAK_ASSIGN_OR_RETURN(
        LogicalRef result,
        ctx.Join(binding->expr(), binding->input(1), binding->input(0)));
    out->push_back(std::move(result));
    return Status::OK();
  }
};

/// join<TRUE>(join<TRUE>(A, B), C) → join<TRUE>(A, join<TRUE>(B, C)).
class JoinAssociate : public TransformationRule {
 public:
  std::string name() const override { return "join-associate"; }
  const Pattern& pattern() const override {
    static const Pattern kPattern = Pattern::Op(
        LogicalOp::kJoin,
        {Pattern::Op(LogicalOp::kJoin, {Pattern::Any(), Pattern::Any()}),
         Pattern::Any()});
    return kPattern;
  }
  Status Apply(const AlgebraContext& ctx, const LogicalRef& binding,
               std::vector<LogicalRef>* out) const override {
    if (!IsTrueConst(binding->expr()) ||
        !IsTrueConst(binding->input(0)->expr())) {
      return Status::OK();
    }
    ExprRef true_cond = Expr::Const(Value::Bool(true));
    VODAK_ASSIGN_OR_RETURN(
        LogicalRef right,
        ctx.Join(true_cond, binding->input(0)->input(1),
                 binding->input(1)));
    VODAK_ASSIGN_OR_RETURN(
        LogicalRef result,
        ctx.Join(true_cond, binding->input(0)->input(0),
                 std::move(right)));
    out->push_back(std::move(result));
    return Status::OK();
  }
};

class NaturalJoinCommute : public TransformationRule {
 public:
  std::string name() const override { return "natural-join-commute"; }
  const Pattern& pattern() const override {
    static const Pattern kPattern = Pattern::Op(
        LogicalOp::kNaturalJoin, {Pattern::Any(), Pattern::Any()});
    return kPattern;
  }
  Status Apply(const AlgebraContext& ctx, const LogicalRef& binding,
               std::vector<LogicalRef>* out) const override {
    VODAK_ASSIGN_OR_RETURN(
        LogicalRef result,
        ctx.NaturalJoin(binding->input(1), binding->input(0)));
    out->push_back(std::move(result));
    return Status::OK();
  }
};

class NaturalJoinAssociate : public TransformationRule {
 public:
  std::string name() const override { return "natural-join-associate"; }
  const Pattern& pattern() const override {
    static const Pattern kPattern = Pattern::Op(
        LogicalOp::kNaturalJoin,
        {Pattern::Op(LogicalOp::kNaturalJoin,
                     {Pattern::Any(), Pattern::Any()}),
         Pattern::Any()});
    return kPattern;
  }
  Status Apply(const AlgebraContext& ctx, const LogicalRef& binding,
               std::vector<LogicalRef>* out) const override {
    auto right = ctx.NaturalJoin(binding->input(0)->input(1),
                                 binding->input(1));
    if (!right.ok()) return Status::OK();  // no shared refs: not valid
    auto result =
        ctx.NaturalJoin(binding->input(0)->input(0), right.value());
    if (!result.ok()) return Status::OK();
    // Associativity of natural join is only sound when no shared
    // reference is lost: require equal output schemas.
    if (result.value()->schema().size() != binding->schema().size()) {
      return Status::OK();
    }
    out->push_back(std::move(result).value());
    return Status::OK();
  }
};

/// select<a IS-IN E>(X) → natural_join(X, expr_source<a, E>) for a bare
/// reference `a` and a closed set expression E over the same class.
/// This is the "standard query transformation" the paper applies between
/// Q⁗ and PQ in §2.3, generalized: the membership condition becomes an
/// intersection with the materialized set.
class IsInToNaturalJoin : public TransformationRule {
 public:
  std::string name() const override { return "is-in-to-natural-join"; }
  const Pattern& pattern() const override {
    static const Pattern kPattern =
        Pattern::Op(LogicalOp::kSelect, {Pattern::Any()});
    return kPattern;
  }
  Status Apply(const AlgebraContext& ctx, const LogicalRef& binding,
               std::vector<LogicalRef>* out) const override {
    const ExprRef& cond = binding->expr();
    if (cond->kind() != ExprKind::kBinary ||
        cond->bin_op() != BinOp::kIsIn ||
        cond->lhs()->kind() != ExprKind::kVar) {
      return Status::OK();
    }
    const std::string& ref = cond->lhs()->var_name();
    const LogicalRef& input = binding->input(0);
    if (!input->HasRef(ref)) return Status::OK();
    if (!cond->rhs()->FreeVars().empty()) return Status::OK();
    auto source = ctx.ExprSource(ref, cond->rhs());
    if (!source.ok()) return Status::OK();
    // Type soundness: the set's element class must match the reference's.
    std::string ref_class = input->RefClass(ref);
    std::string elem_class = source.value()->RefClass(ref);
    if (ref_class.empty() || ref_class != elem_class) return Status::OK();
    VODAK_ASSIGN_OR_RETURN(
        LogicalRef result,
        ctx.NaturalJoin(input, std::move(source).value()));
    out->push_back(std::move(result));
    return Status::OK();
  }
};

/// natural_join(X, get<a, C>) → X when X already carries reference `a`
/// of class C: joining with the full extension adds nothing (referential
/// integrity of the store guarantees every C-reference is in the
/// extension). This is the step that erases the original get<p,
/// Paragraph> once the semantic rewrites have produced method sources.
class NaturalJoinGetElim : public TransformationRule {
 public:
  explicit NaturalJoinGetElim(bool get_on_right)
      : get_on_right_(get_on_right) {}
  std::string name() const override {
    return get_on_right_ ? "natural-join-get-elim-right"
                         : "natural-join-get-elim-left";
  }
  const Pattern& pattern() const override {
    static const Pattern kRight = Pattern::Op(
        LogicalOp::kNaturalJoin,
        {Pattern::Any(), Pattern::Op(LogicalOp::kGet, {})});
    static const Pattern kLeft = Pattern::Op(
        LogicalOp::kNaturalJoin,
        {Pattern::Op(LogicalOp::kGet, {}), Pattern::Any()});
    return get_on_right_ ? kRight : kLeft;
  }
  Status Apply(const AlgebraContext&, const LogicalRef& binding,
               std::vector<LogicalRef>* out) const override {
    const LogicalRef& get = binding->input(get_on_right_ ? 1 : 0);
    const LogicalRef& other = binding->input(get_on_right_ ? 0 : 1);
    if (!other->HasRef(get->ref())) return Status::OK();
    if (other->RefClass(get->ref()) != get->class_name()) {
      return Status::OK();
    }
    // Only sound when the get contributes no additional references.
    if (binding->schema().size() != other->schema().size()) {
      return Status::OK();
    }
    out->push_back(other);  // a kGroupRef: the memo merges groups
    return Status::OK();
  }

 private:
  bool get_on_right_;
};

/// natural_join(select<c1>(A), select<c2>(A)) → select<c1>(select<c2>(A))
/// when both selections range over the same group with unchanged schema:
/// an intersection of two subsets of A is the conjunctive selection.
/// This is what turns the §4.2 implication's natural_join into a
/// predicate *ordering* opportunity (evaluate the cheap precomputed
/// membership test first, the expensive method on the survivors).
class NaturalJoinSelectsAbsorb : public TransformationRule {
 public:
  std::string name() const override {
    return "natural-join-selects-absorb";
  }
  const Pattern& pattern() const override {
    static const Pattern kPattern = Pattern::Op(
        LogicalOp::kNaturalJoin,
        {Pattern::Op(LogicalOp::kSelect, {Pattern::Any()}),
         Pattern::Op(LogicalOp::kSelect, {Pattern::Any()})});
    return kPattern;
  }
  Status Apply(const AlgebraContext& ctx, const LogicalRef& binding,
               std::vector<LogicalRef>* out) const override {
    const LogicalRef& left = binding->input(0);
    const LogicalRef& right = binding->input(1);
    const LogicalRef& left_in = left->input(0);
    const LogicalRef& right_in = right->input(0);
    if (left_in->op() != LogicalOp::kGroupRef ||
        right_in->op() != LogicalOp::kGroupRef ||
        left_in->group_id() != right_in->group_id()) {
      return Status::OK();
    }
    VODAK_ASSIGN_OR_RETURN(LogicalRef inner,
                           ctx.Select(right->expr(), left_in));
    VODAK_ASSIGN_OR_RETURN(LogicalRef outer,
                           ctx.Select(left->expr(), std::move(inner)));
    out->push_back(std::move(outer));
    return Status::OK();
  }
};

/// project<R>(map<a, e>(X)) → project<R>(X) when a ∉ R: dead derived
/// column elimination (map is side-effect-free by the §1 assumption).
class DeadMapElimination : public TransformationRule {
 public:
  std::string name() const override { return "dead-map-elimination"; }
  const Pattern& pattern() const override {
    static const Pattern kPattern = Pattern::Op(
        LogicalOp::kProject,
        {Pattern::Op(LogicalOp::kMap, {Pattern::Any()})});
    return kPattern;
  }
  Status Apply(const AlgebraContext& ctx, const LogicalRef& binding,
               std::vector<LogicalRef>* out) const override {
    const LogicalRef& map = binding->input(0);
    const auto& projection = binding->projection();
    if (std::find(projection.begin(), projection.end(), map->ref()) !=
        projection.end()) {
      return Status::OK();
    }
    VODAK_ASSIGN_OR_RETURN(LogicalRef result,
                           ctx.Project(projection, map->input(0)));
    out->push_back(std::move(result));
    return Status::OK();
  }
};

}  // namespace

std::vector<RulePtr> BuiltinRules() {
  std::vector<RulePtr> rules;
  rules.push_back(std::make_shared<SelectSplitAnd>());
  rules.push_back(std::make_shared<SelectCommute>());
  rules.push_back(std::make_shared<SelectPushIntoJoin>());
  rules.push_back(std::make_shared<SelectPullFromJoin>());
  rules.push_back(std::make_shared<SelectJoinCondExchange>());
  rules.push_back(std::make_shared<JoinCondToSelect>());
  rules.push_back(std::make_shared<JoinCommute>());
  rules.push_back(std::make_shared<JoinAssociate>());
  rules.push_back(std::make_shared<NaturalJoinCommute>());
  rules.push_back(std::make_shared<NaturalJoinAssociate>());
  rules.push_back(std::make_shared<IsInToNaturalJoin>());
  rules.push_back(std::make_shared<NaturalJoinGetElim>(true));
  rules.push_back(std::make_shared<NaturalJoinGetElim>(false));
  rules.push_back(std::make_shared<NaturalJoinSelectsAbsorb>());
  rules.push_back(std::make_shared<DeadMapElimination>());
  return rules;
}

}  // namespace opt
}  // namespace vodak
