#include "semantics/knowledge.h"

#include <algorithm>

#include "algebra/translate.h"
#include "vql/binder.h"
#include "vql/parser.h"

namespace vodak {
namespace semantics {

using algebra::AlgebraContext;
using algebra::LogicalOp;
using algebra::LogicalRef;
using opt::Pattern;
using opt::TransformationRule;

const char* KnowledgeKindName(KnowledgeKind kind) {
  switch (kind) {
    case KnowledgeKind::kExprEquivalence:
      return "expression-equivalence";
    case KnowledgeKind::kCondEquivalence:
      return "condition-equivalence";
    case KnowledgeKind::kCondImplication:
      return "condition-implication";
    case KnowledgeKind::kQueryMethod:
      return "query-method-equivalence";
    case KnowledgeKind::kRangeInverse:
      return "range-inverse";
  }
  return "?";
}

std::string KnowledgeEntry::ToString() const {
  std::string out = name;
  out += " [";
  out += KnowledgeKindName(kind);
  out += "] FORALL ";
  if (kind == KnowledgeKind::kRangeInverse) {
    out += outer_var + " IN " + outer_class + ", ";
  }
  out += var + " IN " + class_name + ": ";
  switch (kind) {
    case KnowledgeKind::kExprEquivalence:
      out += lhs->ToString() + " == " + rhs->ToString();
      break;
    case KnowledgeKind::kCondEquivalence:
      out += lhs->ToString() + " <=> " + rhs->ToString();
      break;
    case KnowledgeKind::kCondImplication:
      out += lhs->ToString() + " => " + rhs->ToString();
      break;
    case KnowledgeKind::kQueryMethod:
      out = name;
      out += " [";
      out += KnowledgeKindName(kind);
      out += "] ";
      out += rhs->ToString() + " == (" + query_text + ")";
      break;
    case KnowledgeKind::kRangeInverse:
      out += var + " IS-IN " + lhs->ToString() + " <=> " +
             rhs->ToString() + " == " + outer_var;
      break;
  }
  return out;
}

namespace {

/// Operator kinds whose expression parameter the parameter-rewrite rules
/// touch (every operator with an expression argument).
bool HasExprParam(LogicalOp op) {
  switch (op) {
    case LogicalOp::kSelect:
    case LogicalOp::kJoin:
    case LogicalOp::kMap:
    case LogicalOp::kFlat:
    case LogicalOp::kExprSource:
      return true;
    default:
      return false;
  }
}

/// Rebuilds an operator identical to `node` but with `expr` as its
/// expression parameter.
Result<LogicalRef> WithExpr(const AlgebraContext& ctx,
                            const algebra::LogicalNode& node,
                            const ExprRef& expr) {
  switch (node.op()) {
    case LogicalOp::kSelect:
      return ctx.Select(expr, node.input(0));
    case LogicalOp::kJoin:
      return ctx.Join(expr, node.input(0), node.input(1));
    case LogicalOp::kMap:
      return ctx.Map(node.ref(), expr, node.input(0));
    case LogicalOp::kFlat:
      return ctx.Flat(node.ref(), expr, node.input(0));
    case LogicalOp::kExprSource:
      return ctx.ExprSource(node.ref(), expr);
    default:
      return Status::Internal("WithExpr on operator without parameter");
  }
}

algebra::RefSchema ScopeOf(const algebra::LogicalNode& node) {
  // The expression parameter of join sees both inputs; every other
  // parameterized operator sees its single input; expr_source is closed.
  if (node.op() == LogicalOp::kExprSource) return {};
  if (node.op() == LogicalOp::kJoin) return node.schema();
  return node.input(0)->schema();
}

/// A §4.2 equivalence lifted to a transformation rule: rewrites one
/// occurrence of the lhs pattern inside any operator's expression
/// parameter. Bidirectional equivalences are registered as two of these
/// (lhs→rhs and rhs→lhs).
class ParamRewriteRule : public TransformationRule {
 public:
  ParamRewriteRule(std::string name, ExprPattern pattern,
                   ExprRef replacement)
      : name_(std::move(name)),
        pattern_(std::move(pattern)),
        replacement_(std::move(replacement)) {}

  std::string name() const override { return name_; }
  const Pattern& pattern() const override {
    static const Pattern kPattern = Pattern::AnyOp();
    return kPattern;
  }
  Status Apply(const AlgebraContext& ctx, const LogicalRef& binding,
               std::vector<LogicalRef>* out) const override {
    if (!HasExprParam(binding->op())) return Status::OK();
    algebra::RefSchema scope = ScopeOf(*binding);
    std::vector<ExprRef> rewritten =
        RewriteOnce(pattern_, replacement_, binding->expr(), ctx, scope);
    for (const ExprRef& expr : rewritten) {
      auto rebuilt = WithExpr(ctx, *binding, expr);
      // Rewrites can produce expressions that do not type-check in this
      // operator's scope (e.g. a parameter bound to an unrelated ref);
      // those are silently skipped, the Volcano condition-code idiom.
      if (rebuilt.ok()) out->push_back(std::move(rebuilt).value());
    }
    return Status::OK();
  }

 private:
  std::string name_;
  ExprPattern pattern_;
  ExprRef replacement_;
};

/// §4.2 implication rule:
/// select<cond1>(?A) ⟶! natural_join(select<cond1>(?A),
///                                    select<cond2>(?A)).
/// The paper notes the natural_join "behaves like an intersection as the
/// set of references are the same for both operator arguments". Inside a
/// memo the literal form would make the result a member of its own
/// input group (self-reference), so we emit the equivalent intersection
/// directly: select<cond1>(select<cond2>(?A)). Selection commutation
/// then lets the cost model evaluate the implied (cheap, precomputed)
/// condition first — the §4.2 "precomputed information" payoff.
class ImplicationRule : public TransformationRule {
 public:
  ImplicationRule(std::string name, ExprPattern antecedent,
                  ExprRef consequent)
      : name_(std::move(name)),
        antecedent_(std::move(antecedent)),
        consequent_(std::move(consequent)) {}

  std::string name() const override { return name_; }
  const Pattern& pattern() const override {
    // Restricted to selections directly over a class extension:
    // selection commutation always exposes the antecedent at the base
    // and can re-lift the implied condition, so nothing is lost, while
    // firing inside arbitrary towers would re-derive the consequent for
    // every derived input group.
    static const Pattern kPattern = Pattern::Op(
        LogicalOp::kSelect, {Pattern::Op(LogicalOp::kGet, {})});
    return kPattern;
  }
  bool apply_once() const override { return true; }

  Status Apply(const AlgebraContext& ctx, const LogicalRef& binding,
               std::vector<LogicalRef>* out) const override {
    Bindings bindings;
    const LogicalRef& input = binding->input(0);
    if (!MatchWhole(antecedent_, binding->expr(), ctx, input->schema(),
                    &bindings)) {
      return Status::OK();
    }
    std::map<std::string, ExprRef> substitution(bindings.begin(),
                                                bindings.end());
    ExprRef cond2 = Expr::SubstituteVars(consequent_, substitution);
    auto sel2 = ctx.Select(cond2, input);
    if (!sel2.ok()) return Status::OK();
    auto tower = ctx.Select(binding->expr(), std::move(sel2).value());
    if (!tower.ok()) return Status::OK();
    out->push_back(std::move(tower).value());
    return Status::OK();
  }

 private:
  std::string name_;
  ExprPattern antecedent_;
  ExprRef consequent_;
};

/// §4.2 implementation rule derived from methcall ≡ query:
/// select<cond-instance>(?A) ⟶! natural_join(?A,
///     expr_source<r, methcall-instance>) where r is the reference the
/// query's range variable matched. With ?A = get<r, C> the built-in
/// natural-join-get-elim rule then reduces this to the bare method scan,
/// which is exactly the paper's `Aquery → methcall` (E5 in §2.3/§4.2).
class QueryMethodRule : public TransformationRule {
 public:
  QueryMethodRule(std::string name, ExprPattern where_pattern,
                  ExprRef methcall, std::string range_class)
      : name_(std::move(name)),
        where_(std::move(where_pattern)),
        methcall_(std::move(methcall)),
        range_class_(std::move(range_class)) {}

  std::string name() const override { return name_; }
  const Pattern& pattern() const override {
    static const Pattern kPattern =
        Pattern::Op(LogicalOp::kSelect, {Pattern::Any()});
    return kPattern;
  }
  bool apply_once() const override { return true; }

  Status Apply(const AlgebraContext& ctx, const LogicalRef& binding,
               std::vector<LogicalRef>* out) const override {
    Bindings bindings;
    const LogicalRef& input = binding->input(0);
    if (!MatchWhole(where_, binding->expr(), ctx, input->schema(),
                    &bindings)) {
      return Status::OK();
    }
    // The query's range variable must have matched a bare reference of
    // the range class (the method computes exactly that class's
    // qualifying instances).
    auto receiver = bindings.find(where_.receiver_var);
    if (receiver == bindings.end() ||
        receiver->second->kind() != ExprKind::kVar) {
      return Status::OK();
    }
    const std::string& ref = receiver->second->var_name();
    if (input->RefClass(ref) != range_class_) return Status::OK();
    std::map<std::string, ExprRef> substitution(bindings.begin(),
                                                bindings.end());
    ExprRef call = Expr::SubstituteVars(methcall_, substitution);
    if (!call->FreeVars().empty()) return Status::OK();
    auto source = ctx.ExprSource(ref, call);
    if (!source.ok()) return Status::OK();
    auto nj = ctx.NaturalJoin(input, std::move(source).value());
    if (!nj.ok()) return Status::OK();
    out->push_back(std::move(nj).value());
    return Status::OK();
  }

 private:
  std::string name_;
  ExprPattern where_;
  ExprRef methcall_;
  std::string range_class_;
};

/// Range-inverse rule derived from
/// ∀y∈D, x∈C: x IS-IN range(y) ⇔ inverse(x) == y:
///   natural_join(flat<x, range(y)>(get<y, D>), expr_source<x, E>)
///     ⟶ select<y != NIL>(map<y, inverse(x)>(expr_source<x, E>))
/// The dependent range enumerates every D to reach the few x that E
/// yields; the inverse reaches each x's owner directly. An x whose
/// inverse is NULL has no owner, so it belongs to no range(y) and is
/// dropped. The rule fires only when x has a method source of its own
/// (an E5 scan, an index): inverting over the bare C extent would
/// enumerate every x, and would expose every x the range links never
/// recorded (an insert that set only the inverse side).
class RangeInverseRule : public TransformationRule {
 public:
  explicit RangeInverseRule(KnowledgeEntry entry)
      : entry_(std::move(entry)) {}

  std::string name() const override { return entry_.name + "-invert"; }
  const Pattern& pattern() const override {
    static const Pattern kPattern = Pattern::Op(
        LogicalOp::kNaturalJoin,
        {Pattern::Op(LogicalOp::kFlat, {Pattern::Op(LogicalOp::kGet, {})}),
         Pattern::Op(LogicalOp::kExprSource, {})});
    return kPattern;
  }

  Status Apply(const AlgebraContext& ctx, const LogicalRef& binding,
               std::vector<LogicalRef>* out) const override {
    const LogicalRef& flat = binding->input(0);
    const LogicalRef& get = flat->input(0);
    const LogicalRef& source = binding->input(1);
    if (get->class_name() != entry_.outer_class ||
        flat->ref() != source->ref()) {
      return Status::OK();
    }
    const std::string& owner = get->ref();
    const std::string& member = flat->ref();
    if (!Expr::Equals(flat->expr(),
                      Expr::SubstituteVar(entry_.lhs, entry_.outer_var,
                                          Expr::Var(owner)))) {
      return Status::OK();
    }
    auto map = ctx.Map(
        owner, Expr::SubstituteVar(entry_.rhs, entry_.var, Expr::Var(member)),
        source);
    if (!map.ok()) return Status::OK();
    auto owned = ctx.Select(Expr::Binary(BinOp::kNe, Expr::Var(owner),
                                         Expr::Const(Value::Null())),
                            std::move(map).value());
    if (!owned.ok()) return Status::OK();
    out->push_back(std::move(owned).value());
    return Status::OK();
  }

 private:
  KnowledgeEntry entry_;  ///< lhs: the range, rhs: the inverse
};

}  // namespace

KnowledgeBase::KnowledgeBase(const Catalog* catalog) : catalog_(catalog) {}

Result<ExprRef> KnowledgeBase::BindSpec(const std::string& text,
                                        const std::string& var,
                                        const std::string& class_name,
                                        std::vector<std::string>* params,
                                        TypeRef* out_type) const {
  VODAK_ASSIGN_OR_RETURN(ExprRef parsed, vql::ParseExpr(text));
  // Scope: the ∀-variable with its class, all other free variables as
  // parameters of unconstrained type.
  std::map<std::string, TypeRef> scope;
  scope[var] = Type::OidOf(class_name);
  for (const std::string& free : parsed->FreeVars()) {
    if (free == var) continue;
    if (catalog_->FindClass(free) != nullptr) continue;  // class receiver
    scope[free] = Type::Any();
    if (std::find(params->begin(), params->end(), free) == params->end()) {
      params->push_back(free);
    }
  }
  vql::Binder binder(catalog_);
  return binder.BindExpr(parsed, scope, out_type);
}

Status KnowledgeBase::AddExprEquivalence(const std::string& name,
                                         const std::string& var,
                                         const std::string& class_name,
                                         const std::string& lhs_text,
                                         const std::string& rhs_text) {
  if (catalog_->FindClass(class_name) == nullptr) {
    return Status::BindError("knowledge " + name + ": unknown class '" +
                             class_name + "'");
  }
  KnowledgeEntry entry;
  entry.kind = KnowledgeKind::kExprEquivalence;
  entry.name = name;
  entry.var = var;
  entry.class_name = class_name;
  TypeRef lhs_type;
  TypeRef rhs_type;
  VODAK_ASSIGN_OR_RETURN(
      entry.lhs, BindSpec(lhs_text, var, class_name, &entry.params,
                          &lhs_type));
  VODAK_ASSIGN_OR_RETURN(
      entry.rhs, BindSpec(rhs_text, var, class_name, &entry.params,
                          &rhs_type));
  if (!lhs_type->Accepts(*rhs_type) && !rhs_type->Accepts(*lhs_type)) {
    return Status::TypeError("knowledge " + name +
                             ": sides have incompatible types " +
                             lhs_type->ToString() + " vs " +
                             rhs_type->ToString());
  }
  entries_.push_back(std::move(entry));
  return Status::OK();
}

Status KnowledgeBase::AddCondEquivalence(const std::string& name,
                                         const std::string& var,
                                         const std::string& class_name,
                                         const std::string& lhs_text,
                                         const std::string& rhs_text) {
  if (catalog_->FindClass(class_name) == nullptr) {
    return Status::BindError("knowledge " + name + ": unknown class '" +
                             class_name + "'");
  }
  KnowledgeEntry entry;
  entry.kind = KnowledgeKind::kCondEquivalence;
  entry.name = name;
  entry.var = var;
  entry.class_name = class_name;
  TypeRef lhs_type;
  TypeRef rhs_type;
  VODAK_ASSIGN_OR_RETURN(
      entry.lhs, BindSpec(lhs_text, var, class_name, &entry.params,
                          &lhs_type));
  VODAK_ASSIGN_OR_RETURN(
      entry.rhs, BindSpec(rhs_text, var, class_name, &entry.params,
                          &rhs_type));
  for (const TypeRef* t : {&lhs_type, &rhs_type}) {
    if (!Type::Bool()->Accepts(**t)) {
      return Status::TypeError("knowledge " + name +
                               ": condition sides must be boolean");
    }
  }
  entries_.push_back(std::move(entry));
  return Status::OK();
}

Status KnowledgeBase::AddCondImplication(const std::string& name,
                                         const std::string& var,
                                         const std::string& class_name,
                                         const std::string& antecedent_text,
                                         const std::string& consequent_text) {
  if (catalog_->FindClass(class_name) == nullptr) {
    return Status::BindError("knowledge " + name + ": unknown class '" +
                             class_name + "'");
  }
  KnowledgeEntry entry;
  entry.kind = KnowledgeKind::kCondImplication;
  entry.name = name;
  entry.var = var;
  entry.class_name = class_name;
  TypeRef lhs_type;
  TypeRef rhs_type;
  VODAK_ASSIGN_OR_RETURN(
      entry.lhs, BindSpec(antecedent_text, var, class_name, &entry.params,
                          &lhs_type));
  VODAK_ASSIGN_OR_RETURN(
      entry.rhs, BindSpec(consequent_text, var, class_name, &entry.params,
                          &rhs_type));
  for (const TypeRef* t : {&lhs_type, &rhs_type}) {
    if (!Type::Bool()->Accepts(**t)) {
      return Status::TypeError("knowledge " + name +
                               ": implication sides must be boolean");
    }
  }
  entries_.push_back(std::move(entry));
  return Status::OK();
}

Status KnowledgeBase::AddQueryMethodEquivalence(
    const std::string& name, const std::string& query_text,
    const std::string& methcall_text,
    const std::vector<std::string>& params) {
  VODAK_ASSIGN_OR_RETURN(vql::Query query, vql::ParseQuery(query_text));
  std::map<std::string, TypeRef> extra_scope;
  for (const std::string& p : params) extra_scope[p] = Type::Any();
  vql::Binder binder(catalog_);
  VODAK_ASSIGN_OR_RETURN(vql::BoundQuery bound,
                         binder.Bind(query, extra_scope));
  // The supported query shape (the paper's E5 form): one extent range,
  // a WHERE condition, ACCESS of the bare range variable.
  if (bound.from.size() != 1 ||
      bound.from[0].kind != vql::RangeKind::kExtent) {
    return Status::Unsupported(
        "knowledge " + name +
        ": query must range over exactly one class extension");
  }
  if (bound.where == nullptr) {
    return Status::Unsupported("knowledge " + name +
                               ": query must have a WHERE condition");
  }
  if (bound.access->kind() != ExprKind::kVar ||
      bound.access->var_name() != bound.from[0].var) {
    return Status::Unsupported(
        "knowledge " + name +
        ": query must ACCESS its range variable directly");
  }
  KnowledgeEntry entry;
  entry.kind = KnowledgeKind::kQueryMethod;
  entry.name = name;
  entry.var = bound.from[0].var;
  entry.class_name = bound.from[0].class_name;
  entry.lhs = bound.where;
  entry.params = params;
  entry.query_text = query_text;
  TypeRef call_type;
  std::vector<std::string> call_params = params;
  VODAK_ASSIGN_OR_RETURN(
      entry.rhs, BindSpec(methcall_text, entry.var, entry.class_name,
                          &call_params, &call_type));
  if (entry.rhs->kind() != ExprKind::kClassMethodCall &&
      entry.rhs->kind() != ExprKind::kMethodCall) {
    return Status::Unsupported("knowledge " + name +
                               ": right-hand side must be a method call");
  }
  if (entry.rhs->UsesVar(entry.var)) {
    return Status::Unsupported("knowledge " + name +
                               ": method call must not use the range "
                               "variable");
  }
  if (call_type->kind() != TypeKind::kSet &&
      call_type->kind() != TypeKind::kAny) {
    return Status::TypeError("knowledge " + name +
                             ": method call must be set-valued");
  }
  entries_.push_back(std::move(entry));
  return Status::OK();
}

Status KnowledgeBase::AddRangeInverse(const std::string& name,
                                      const std::string& outer_var,
                                      const std::string& outer_class,
                                      const std::string& var,
                                      const std::string& class_name,
                                      const std::string& range_text,
                                      const std::string& inverse_text) {
  for (const std::string* cls : {&outer_class, &class_name}) {
    if (catalog_->FindClass(*cls) == nullptr) {
      return Status::BindError("knowledge " + name + ": unknown class '" +
                               *cls + "'");
    }
  }
  if (outer_var == var) {
    return Status::BindError("knowledge " + name +
                             ": the two variables must differ");
  }
  KnowledgeEntry entry;
  entry.kind = KnowledgeKind::kRangeInverse;
  entry.name = name;
  entry.var = var;
  entry.class_name = class_name;
  entry.outer_var = outer_var;
  entry.outer_class = outer_class;
  TypeRef range_type;
  TypeRef inverse_type;
  VODAK_ASSIGN_OR_RETURN(
      entry.lhs, BindSpec(range_text, outer_var, outer_class, &entry.params,
                          &range_type));
  VODAK_ASSIGN_OR_RETURN(
      entry.rhs, BindSpec(inverse_text, var, class_name, &entry.params,
                          &inverse_type));
  if (!entry.params.empty()) {
    return Status::BindError("knowledge " + name +
                             ": range and inverse may use only their own "
                             "variable, found '" + entry.params[0] + "'");
  }
  if (range_type->kind() != TypeKind::kSet ||
      !Type::OidOf(class_name)->Accepts(*range_type->element())) {
    return Status::TypeError("knowledge " + name + ": range must be a set "
                             "of " + class_name + ", got " +
                             range_type->ToString());
  }
  if (!Type::OidOf(outer_class)->Accepts(*inverse_type)) {
    return Status::TypeError("knowledge " + name + ": inverse must be a " +
                             outer_class + " reference, got " +
                             inverse_type->ToString());
  }
  entries_.push_back(std::move(entry));
  return Status::OK();
}

std::vector<opt::RulePtr> KnowledgeBase::DeriveRules() const {
  std::vector<opt::RulePtr> rules;
  for (const KnowledgeEntry& entry : entries_) {
    std::set<std::string> params(entry.params.begin(), entry.params.end());
    switch (entry.kind) {
      case KnowledgeKind::kExprEquivalence:
      case KnowledgeKind::kCondEquivalence: {
        ExprPattern forward{entry.lhs, entry.var, entry.class_name, params};
        ExprPattern backward{entry.rhs, entry.var, entry.class_name,
                             params};
        rules.push_back(std::make_shared<ParamRewriteRule>(
            entry.name + "-fwd", forward, entry.rhs));
        rules.push_back(std::make_shared<ParamRewriteRule>(
            entry.name + "-bwd", backward, entry.lhs));
        break;
      }
      case KnowledgeKind::kCondImplication: {
        ExprPattern antecedent{entry.lhs, entry.var, entry.class_name,
                               params};
        rules.push_back(std::make_shared<ImplicationRule>(
            entry.name + "-impl", antecedent, entry.rhs));
        break;
      }
      case KnowledgeKind::kQueryMethod: {
        ExprPattern where{entry.lhs, entry.var, entry.class_name, params};
        rules.push_back(std::make_shared<QueryMethodRule>(
            entry.name + "-impl-rule", where, entry.rhs,
            entry.class_name));
        break;
      }
      case KnowledgeKind::kRangeInverse:
        rules.push_back(std::make_shared<RangeInverseRule>(entry));
        break;
    }
  }
  return rules;
}

std::string KnowledgeBase::ToString() const {
  std::string out;
  for (const KnowledgeEntry& entry : entries_) {
    out += entry.ToString() + "\n";
  }
  return out;
}

}  // namespace semantics
}  // namespace vodak
