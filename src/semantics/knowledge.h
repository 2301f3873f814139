#ifndef VODAK_SEMANTICS_KNOWLEDGE_H_
#define VODAK_SEMANTICS_KNOWLEDGE_H_

#include <memory>
#include <string>
#include <vector>

#include "optimizer/rule.h"
#include "semantics/matcher.h"
#include "vql/ast.h"

namespace vodak {
namespace semantics {

/// The four kinds of schema-specific knowledge about methods of §4.2,
/// plus the range inverse, which carries the inverse links E3/E4 state
/// for predicates over to dependent ranges.
enum class KnowledgeKind {
  kExprEquivalence,   ///< ∀x∈C: expr1(x) ≡ expr2(x)
  kCondEquivalence,   ///< ∀x∈C: cond1(x) ⇔ cond2(x)
  kCondImplication,   ///< ∀x∈C: cond1(x) ⇒ cond2(x)
  kQueryMethod,       ///< method call ≡ ACCESS … FROM … WHERE …
  kRangeInverse,      ///< ∀y∈D, x∈C: x IS-IN range(y) ⇔ inverse(x) == y
};

const char* KnowledgeKindName(KnowledgeKind kind);

/// One registered piece of knowledge, in bound form.
struct KnowledgeEntry {
  KnowledgeKind kind;
  std::string name;       ///< e.g. "E1"
  std::string var;        ///< the ∀-variable
  std::string class_name; ///< its class
  /// kRangeInverse only: the owner variable the range depends on, and
  /// its class (`d` and Document in R1).
  std::string outer_var;
  std::string outer_class;
  ExprRef lhs;  ///< expr1 / cond1 / antecedent / where-cond / range
  ExprRef rhs;  ///< expr2 / cond2 / consequent / method call / inverse
  std::vector<std::string> params;  ///< free parameters (s, D, ...)
  /// kQueryMethod only: the equivalent query, bound.
  std::string query_text;

  std::string ToString() const;
};

/// Collects the schema designer's knowledge specifications (§5.2) and
/// derives optimizer rules from them (§4.2). Specifications are given in
/// VQL surface syntax and validated against the catalog at registration
/// — mis-typed knowledge is rejected, not silently miscompiled.
class KnowledgeBase {
 public:
  explicit KnowledgeBase(const Catalog* catalog);

  /// ∀ var IN class: lhs ≡ rhs, e.g.
  /// AddExprEquivalence("E1", "p", "Paragraph",
  ///                    "p->document()", "p.section.document").
  /// Free variables other than `var` become rule parameters.
  Status AddExprEquivalence(const std::string& name, const std::string& var,
                            const std::string& class_name,
                            const std::string& lhs_text,
                            const std::string& rhs_text);

  /// ∀ var IN class: lhs ⇔ rhs (boolean), e.g. E3:
  /// AddCondEquivalence("E3", "p", "Paragraph",
  ///     "p.section.document IS-IN D", "p.section IS-IN D.sections").
  Status AddCondEquivalence(const std::string& name, const std::string& var,
                            const std::string& class_name,
                            const std::string& lhs_text,
                            const std::string& rhs_text);

  /// ∀ var IN class: antecedent ⇒ consequent, the apply-once (⟶!) rule
  /// of §4.2, e.g. the precomputed largeParagraphs example.
  Status AddCondImplication(const std::string& name, const std::string& var,
                            const std::string& class_name,
                            const std::string& antecedent_text,
                            const std::string& consequent_text);

  /// methcall ≡ query (§4.2 "Equivalences Between Queries and Method
  /// Calls"), e.g. E5:
  /// AddQueryMethodEquivalence("E5",
  ///     "ACCESS p FROM p IN Paragraph WHERE p->contains_string(s)",
  ///     "Paragraph->retrieve_by_string(s)", {"s"}).
  /// The query must have a single extent range, a WHERE condition and
  /// the range variable as its ACCESS expression; this is the query
  /// shape the paper's implementation rules cover.
  Status AddQueryMethodEquivalence(const std::string& name,
                                   const std::string& query_text,
                                   const std::string& methcall_text,
                                   const std::vector<std::string>& params);

  /// ∀ outer_var IN outer_class, var IN class_name:
  ///   var IS-IN range ⇔ inverse == outer_var, e.g. R1:
  /// AddRangeInverse("R1", "d", "Document", "p", "Paragraph",
  ///                 "d->paragraphs()", "p->document()").
  /// `range` may use only outer_var and must be a set of class_name
  /// references; `inverse` may use only var and must be an
  /// outer_class reference.
  Status AddRangeInverse(const std::string& name,
                         const std::string& outer_var,
                         const std::string& outer_class,
                         const std::string& var,
                         const std::string& class_name,
                         const std::string& range_text,
                         const std::string& inverse_text);

  const std::vector<KnowledgeEntry>& entries() const { return entries_; }
  size_t size() const { return entries_.size(); }

  /// Derives the optimizer rules (§4.2's lifting): equivalences become
  /// bidirectional parameter-rewrite rules, implications become
  /// apply-once natural_join introductions, query≡method entries become
  /// directional implementation rules producing expr_source operators,
  /// range inverses become directional rules that drive a dependent
  /// range from the inner variable's own method source.
  std::vector<opt::RulePtr> DeriveRules() const;

  /// Renders all registered knowledge (for DESIGN/demo output).
  std::string ToString() const;

 private:
  Result<ExprRef> BindSpec(const std::string& text, const std::string& var,
                           const std::string& class_name,
                           std::vector<std::string>* params,
                           TypeRef* out_type) const;

  const Catalog* catalog_;
  std::vector<KnowledgeEntry> entries_;
};

}  // namespace semantics
}  // namespace vodak

#endif  // VODAK_SEMANTICS_KNOWLEDGE_H_
