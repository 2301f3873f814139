#ifndef VODAK_ALGEBRA_LOGICAL_H_
#define VODAK_ALGEBRA_LOGICAL_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "expr/expr.h"
#include "schema/catalog.h"
#include "vql/binder.h"

namespace vodak {
namespace algebra {

/// The general query algebra of §4.1 over values of type
/// `set[tuple[a1: D1, ..., an: Dn]]`, plus one addition:
/// kExprSource realizes §3.2's "methods as algebraic operators" — a leaf
/// producing the tuples {[a: v] | v ∈ eval(expr)} for a closed set-valued
/// expression, typically a class-object method call such as
/// `Paragraph→retrieve_by_string(s)`. Implementation rules derived from
/// query≡method equivalences (§4.2) rewrite into this operator.
enum class LogicalOp {
  kGet,          ///< get<a, class>
  kExprSource,   ///< <a, expr> with expr closed and set-valued
  kSelect,       ///< select<condition>(S)
  kJoin,         ///< join<condition>(S1, S2); condition TRUE = product
  kNaturalJoin,  ///< natural_join(S1, S2)
  kMap,          ///< map<a, expression>(S)
  kFlat,         ///< flat<a, expression>(S)
  kProject,      ///< project<a1,...,ai>(S)
  kGroupRef,     ///< optimizer-internal: placeholder for a memo group
};

const char* LogicalOpName(LogicalOp op);

class LogicalNode;
using LogicalRef = std::shared_ptr<const LogicalNode>;

/// Output schema of an operator: reference name -> element type
/// (Ref(S) of §4.1, with types carried along so rules can check class
/// membership of references — the `?A<?a1, Paragraph>` side conditions).
using RefSchema = std::map<std::string, TypeRef>;

/// Immutable logical algebra node. Nodes are created through
/// AlgebraContext, which type-checks operator parameters against the
/// input schemas and the catalog; an ill-typed plan is unrepresentable.
class LogicalNode {
 public:
  LogicalOp op() const { return op_; }
  const std::vector<LogicalRef>& inputs() const { return inputs_; }
  const LogicalRef& input(size_t i) const { return inputs_[i]; }

  /// kGet / kExprSource / kMap / kFlat: the introduced reference.
  const std::string& ref() const { return ref_; }
  /// kGet: the class whose extension is produced.
  const std::string& class_name() const { return class_name_; }
  /// kSelect / kJoin condition, kMap / kFlat / kExprSource expression.
  const ExprRef& expr() const { return expr_; }
  /// kProject: retained references.
  const std::vector<std::string>& projection() const { return projection_; }
  /// kGroupRef: the memo group this leaf stands for.
  int group_id() const { return group_id_; }

  const RefSchema& schema() const { return schema_; }
  bool HasRef(const std::string& name) const {
    return schema_.count(name) > 0;
  }
  /// Class name of an OID-typed reference ("" when untyped/non-OID).
  std::string RefClass(const std::string& name) const;

  uint64_t Hash() const { return hash_; }
  static bool Equals(const LogicalRef& a, const LogicalRef& b);

  /// Single-line rendering, e.g. `select<(p->contains_string('x'))>(...)`.
  std::string ToString() const;
  /// Multi-line indented plan rendering.
  std::string ToTreeString(int indent = 0) const;

 private:
  friend class AlgebraContext;
  LogicalNode() = default;

  void ComputeHash();

  LogicalOp op_ = LogicalOp::kGet;
  std::vector<LogicalRef> inputs_;
  std::string ref_;
  std::string class_name_;
  ExprRef expr_;
  std::vector<std::string> projection_;
  RefSchema schema_;
  int group_id_ = -1;
  uint64_t hash_ = 0;
};

/// Factory for logical nodes; owns the typing rules of the algebra.
/// Every factory validates its parameters against the catalog and the
/// input schemas and computes the output schema.
class AlgebraContext {
 public:
  explicit AlgebraContext(const Catalog* catalog)
      : catalog_(catalog), binder_(catalog) {}

  const Catalog* catalog() const { return catalog_; }
  const vql::Binder& binder() const { return binder_; }

  /// get<ref, class>: {[ref: o] | o ∈ extension(class)}.
  Result<LogicalRef> Get(const std::string& ref,
                         const std::string& class_name) const;

  /// {[ref: v] | v ∈ expr} for closed set-valued expr.
  Result<LogicalRef> ExprSource(const std::string& ref,
                                const ExprRef& expr) const;

  Result<LogicalRef> Select(const ExprRef& condition,
                            LogicalRef input) const;

  Result<LogicalRef> Join(const ExprRef& condition, LogicalRef left,
                          LogicalRef right) const;

  Result<LogicalRef> NaturalJoin(LogicalRef left, LogicalRef right) const;

  /// map<ref, expr>(S): extends each tuple with ref = expr(tuple).
  Result<LogicalRef> Map(const std::string& ref, const ExprRef& expr,
                         LogicalRef input) const;

  /// flat<ref, expr>(S): one output tuple per element of set-valued expr.
  Result<LogicalRef> Flat(const std::string& ref, const ExprRef& expr,
                          LogicalRef input) const;

  Result<LogicalRef> Project(std::vector<std::string> refs,
                             LogicalRef input) const;

  /// Optimizer-internal leaf standing for memo group `group_id` with the
  /// given output schema. Never evaluable; rules treat it as an opaque
  /// input (`?A` in the paper's rule notation).
  LogicalRef GroupRef(int group_id, RefSchema schema) const;

  /// Rebuilds `node` with new inputs (same op and parameters),
  /// re-validating. Used by the memo when extracting plans.
  Result<LogicalRef> WithInputs(const LogicalNode& node,
                                std::vector<LogicalRef> inputs) const;

  /// Binds and types `expr` in the scope given by `schema`.
  Result<ExprRef> BindInSchema(const ExprRef& expr, const RefSchema& schema,
                               TypeRef* out_type) const;

 private:
  const Catalog* catalog_;
  vql::Binder binder_;
};

}  // namespace algebra
}  // namespace vodak

#endif  // VODAK_ALGEBRA_LOGICAL_H_
