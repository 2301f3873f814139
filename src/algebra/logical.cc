#include "algebra/logical.h"

#include <algorithm>

#include "common/string_util.h"

namespace vodak {
namespace algebra {

const char* LogicalOpName(LogicalOp op) {
  switch (op) {
    case LogicalOp::kGet:
      return "get";
    case LogicalOp::kExprSource:
      return "expr_source";
    case LogicalOp::kSelect:
      return "select";
    case LogicalOp::kJoin:
      return "join";
    case LogicalOp::kNaturalJoin:
      return "natural_join";
    case LogicalOp::kMap:
      return "map";
    case LogicalOp::kFlat:
      return "flat";
    case LogicalOp::kProject:
      return "project";
    case LogicalOp::kGroupRef:
      return "?A";
  }
  return "?";
}

std::string LogicalNode::RefClass(const std::string& name) const {
  auto it = schema_.find(name);
  if (it == schema_.end()) return "";
  if (it->second->kind() != TypeKind::kOid) return "";
  return it->second->class_name();
}

void LogicalNode::ComputeHash() {
  uint64_t h = HashCombine(0x1c0ffee, static_cast<uint64_t>(op_));
  h = HashCombine(h, static_cast<uint64_t>(group_id_ + 1));
  h = HashCombine(h, HashBytes(ref_.data(), ref_.size()));
  h = HashCombine(h, HashBytes(class_name_.data(), class_name_.size()));
  if (expr_ != nullptr) h = HashCombine(h, expr_->Hash());
  for (const auto& p : projection_) {
    h = HashCombine(h, HashBytes(p.data(), p.size()));
  }
  for (const auto& in : inputs_) h = HashCombine(h, in->Hash());
  hash_ = h;
}

bool LogicalNode::Equals(const LogicalRef& a, const LogicalRef& b) {
  if (a == b) return true;
  if (a == nullptr || b == nullptr) return false;
  if (a->hash_ != b->hash_) return false;
  if (a->op_ != b->op_ || a->ref_ != b->ref_ ||
      a->class_name_ != b->class_name_ ||
      a->projection_ != b->projection_ || a->group_id_ != b->group_id_) {
    return false;
  }
  if ((a->expr_ == nullptr) != (b->expr_ == nullptr)) return false;
  if (a->expr_ != nullptr && !Expr::Equals(a->expr_, b->expr_)) {
    return false;
  }
  if (a->inputs_.size() != b->inputs_.size()) return false;
  for (size_t i = 0; i < a->inputs_.size(); ++i) {
    if (!Equals(a->inputs_[i], b->inputs_[i])) return false;
  }
  return true;
}

std::string LogicalNode::ToString() const {
  std::string out = LogicalOpName(op_);
  switch (op_) {
    case LogicalOp::kGet:
      out += "<" + ref_ + ", " + class_name_ + ">";
      break;
    case LogicalOp::kExprSource:
      out += "<" + ref_ + ", " + expr_->ToString() + ">";
      break;
    case LogicalOp::kSelect:
    case LogicalOp::kJoin:
      out += "<" + expr_->ToString() + ">";
      break;
    case LogicalOp::kMap:
    case LogicalOp::kFlat:
      out += "<" + ref_ + ", " + expr_->ToString() + ">";
      break;
    case LogicalOp::kProject:
      out += "<" + Join(projection_, ", ") + ">";
      break;
    case LogicalOp::kGroupRef:
      return "?G" + std::to_string(group_id_);
    default:
      break;
  }
  out += "(";
  for (size_t i = 0; i < inputs_.size(); ++i) {
    if (i) out += ", ";
    out += inputs_[i]->ToString();
  }
  out += ")";
  return out;
}

std::string LogicalNode::ToTreeString(int indent) const {
  std::string pad(static_cast<size_t>(indent) * 2, ' ');
  std::string head = LogicalOpName(op_);
  switch (op_) {
    case LogicalOp::kGet:
      head += "<" + ref_ + ", " + class_name_ + ">";
      break;
    case LogicalOp::kExprSource:
      head += "<" + ref_ + ", " + expr_->ToString() + ">";
      break;
    case LogicalOp::kSelect:
    case LogicalOp::kJoin:
      head += "<" + expr_->ToString() + ">";
      break;
    case LogicalOp::kMap:
    case LogicalOp::kFlat:
      head += "<" + ref_ + ", " + expr_->ToString() + ">";
      break;
    case LogicalOp::kProject:
      head += "<" + Join(projection_, ", ") + ">";
      break;
    case LogicalOp::kGroupRef:
      head = "?G" + std::to_string(group_id_);
      break;
    default:
      break;
  }
  std::string out = pad + head + "\n";
  for (const auto& in : inputs_) {
    out += in->ToTreeString(indent + 1);
  }
  return out;
}

Result<ExprRef> AlgebraContext::BindInSchema(const ExprRef& expr,
                                             const RefSchema& schema,
                                             TypeRef* out_type) const {
  std::map<std::string, TypeRef> scope(schema.begin(), schema.end());
  return binder_.BindExpr(expr, scope, out_type);
}

Result<LogicalRef> AlgebraContext::Get(const std::string& ref,
                                       const std::string& class_name) const {
  const ClassDef* cls = catalog_->FindClass(class_name);
  if (cls == nullptr) {
    return Status::BindError("get: unknown class '" + class_name + "'");
  }
  auto node = std::shared_ptr<LogicalNode>(new LogicalNode());
  node->op_ = LogicalOp::kGet;
  node->ref_ = ref;
  node->class_name_ = class_name;
  node->schema_[ref] = Type::OidOf(class_name);
  node->ComputeHash();
  return LogicalRef(node);
}

Result<LogicalRef> AlgebraContext::ExprSource(const std::string& ref,
                                              const ExprRef& expr) const {
  // Bind first: binding reclassifies `Class→m(...)` receivers, which
  // would otherwise look like free variables.
  TypeRef type;
  VODAK_ASSIGN_OR_RETURN(ExprRef bound, BindInSchema(expr, {}, &type));
  if (!bound->FreeVars().empty()) {
    return Status::PlanError(
        "expr_source expression must be closed, has free vars in " +
        bound->ToString());
  }
  if (type->kind() != TypeKind::kSet && type->kind() != TypeKind::kAny) {
    return Status::TypeError("expr_source expression must be set-valued: " +
                             expr->ToString() + " : " + type->ToString());
  }
  auto node = std::shared_ptr<LogicalNode>(new LogicalNode());
  node->op_ = LogicalOp::kExprSource;
  node->ref_ = ref;
  node->expr_ = std::move(bound);
  node->schema_[ref] = type->kind() == TypeKind::kSet ? type->element()
                                                      : Type::Any();
  node->ComputeHash();
  return LogicalRef(node);
}

Result<LogicalRef> AlgebraContext::Select(const ExprRef& condition,
                                          LogicalRef input) const {
  TypeRef type;
  VODAK_ASSIGN_OR_RETURN(ExprRef bound,
                         BindInSchema(condition, input->schema(), &type));
  if (!Type::Bool()->Accepts(*type)) {
    return Status::TypeError("select condition must be boolean: " +
                             condition->ToString());
  }
  auto node = std::shared_ptr<LogicalNode>(new LogicalNode());
  node->op_ = LogicalOp::kSelect;
  node->expr_ = std::move(bound);
  node->schema_ = input->schema();
  node->inputs_.push_back(std::move(input));
  node->ComputeHash();
  return LogicalRef(node);
}

Result<LogicalRef> AlgebraContext::Join(const ExprRef& condition,
                                        LogicalRef left,
                                        LogicalRef right) const {
  RefSchema schema = left->schema();
  for (const auto& [ref, type] : right->schema()) {
    if (schema.count(ref) > 0) {
      return Status::PlanError("join: reference '" + ref +
                               "' occurs in both inputs (use "
                               "natural_join)");
    }
    schema[ref] = type;
  }
  TypeRef type;
  VODAK_ASSIGN_OR_RETURN(ExprRef bound,
                         BindInSchema(condition, schema, &type));
  if (!Type::Bool()->Accepts(*type)) {
    return Status::TypeError("join condition must be boolean: " +
                             condition->ToString());
  }
  auto node = std::shared_ptr<LogicalNode>(new LogicalNode());
  node->op_ = LogicalOp::kJoin;
  node->expr_ = std::move(bound);
  node->schema_ = std::move(schema);
  node->inputs_.push_back(std::move(left));
  node->inputs_.push_back(std::move(right));
  node->ComputeHash();
  return LogicalRef(node);
}

Result<LogicalRef> AlgebraContext::NaturalJoin(LogicalRef left,
                                               LogicalRef right) const {
  RefSchema schema = left->schema();
  bool overlap = false;
  for (const auto& [ref, type] : right->schema()) {
    auto it = schema.find(ref);
    if (it != schema.end()) {
      overlap = true;
    } else {
      schema[ref] = type;
    }
  }
  if (!overlap) {
    return Status::PlanError(
        "natural_join inputs share no references; use join<TRUE>");
  }
  auto node = std::shared_ptr<LogicalNode>(new LogicalNode());
  node->op_ = LogicalOp::kNaturalJoin;
  node->schema_ = std::move(schema);
  node->inputs_.push_back(std::move(left));
  node->inputs_.push_back(std::move(right));
  node->ComputeHash();
  return LogicalRef(node);
}

Result<LogicalRef> AlgebraContext::Map(const std::string& ref,
                                       const ExprRef& expr,
                                       LogicalRef input) const {
  if (input->HasRef(ref)) {
    return Status::PlanError("map: reference '" + ref +
                             "' already present in input");
  }
  TypeRef type;
  VODAK_ASSIGN_OR_RETURN(ExprRef bound,
                         BindInSchema(expr, input->schema(), &type));
  auto node = std::shared_ptr<LogicalNode>(new LogicalNode());
  node->op_ = LogicalOp::kMap;
  node->ref_ = ref;
  node->expr_ = std::move(bound);
  node->schema_ = input->schema();
  node->schema_[ref] = type;
  node->inputs_.push_back(std::move(input));
  node->ComputeHash();
  return LogicalRef(node);
}

Result<LogicalRef> AlgebraContext::Flat(const std::string& ref,
                                        const ExprRef& expr,
                                        LogicalRef input) const {
  if (input->HasRef(ref)) {
    return Status::PlanError("flat: reference '" + ref +
                             "' already present in input");
  }
  TypeRef type;
  VODAK_ASSIGN_OR_RETURN(ExprRef bound,
                         BindInSchema(expr, input->schema(), &type));
  if (type->kind() != TypeKind::kSet && type->kind() != TypeKind::kAny) {
    return Status::TypeError("flat expression must be set-valued: " +
                             expr->ToString() + " : " + type->ToString());
  }
  auto node = std::shared_ptr<LogicalNode>(new LogicalNode());
  node->op_ = LogicalOp::kFlat;
  node->ref_ = ref;
  node->expr_ = std::move(bound);
  node->schema_ = input->schema();
  node->schema_[ref] = type->kind() == TypeKind::kSet ? type->element()
                                                      : Type::Any();
  node->inputs_.push_back(std::move(input));
  node->ComputeHash();
  return LogicalRef(node);
}

Result<LogicalRef> AlgebraContext::Project(std::vector<std::string> refs,
                                           LogicalRef input) const {
  if (refs.empty()) {
    return Status::PlanError("project: empty reference list");
  }
  std::sort(refs.begin(), refs.end());
  refs.erase(std::unique(refs.begin(), refs.end()), refs.end());
  RefSchema schema;
  for (const auto& ref : refs) {
    auto it = input->schema().find(ref);
    if (it == input->schema().end()) {
      return Status::PlanError("project: reference '" + ref +
                               "' not in input schema");
    }
    schema[ref] = it->second;
  }
  auto node = std::shared_ptr<LogicalNode>(new LogicalNode());
  node->op_ = LogicalOp::kProject;
  node->projection_ = std::move(refs);
  node->schema_ = std::move(schema);
  node->inputs_.push_back(std::move(input));
  node->ComputeHash();
  return LogicalRef(node);
}

Result<LogicalRef> AlgebraContext::WithInputs(
    const LogicalNode& node, std::vector<LogicalRef> inputs) const {
  switch (node.op()) {
    case LogicalOp::kGet:
      return Get(node.ref(), node.class_name());
    case LogicalOp::kExprSource:
      return ExprSource(node.ref(), node.expr());
    case LogicalOp::kSelect:
      VODAK_DCHECK(inputs.size() == 1);
      return Select(node.expr(), std::move(inputs[0]));
    case LogicalOp::kJoin:
      VODAK_DCHECK(inputs.size() == 2);
      return Join(node.expr(), std::move(inputs[0]), std::move(inputs[1]));
    case LogicalOp::kNaturalJoin:
      VODAK_DCHECK(inputs.size() == 2);
      return NaturalJoin(std::move(inputs[0]), std::move(inputs[1]));
    case LogicalOp::kMap:
      VODAK_DCHECK(inputs.size() == 1);
      return Map(node.ref(), node.expr(), std::move(inputs[0]));
    case LogicalOp::kFlat:
      VODAK_DCHECK(inputs.size() == 1);
      return Flat(node.ref(), node.expr(), std::move(inputs[0]));
    case LogicalOp::kProject:
      VODAK_DCHECK(inputs.size() == 1);
      return Project(node.projection(), std::move(inputs[0]));
    case LogicalOp::kGroupRef:
      return GroupRef(node.group_id(), node.schema());
  }
  return Status::Internal("unreachable logical op");
}

LogicalRef AlgebraContext::GroupRef(int group_id, RefSchema schema) const {
  auto node = std::shared_ptr<LogicalNode>(new LogicalNode());
  node->op_ = LogicalOp::kGroupRef;
  node->group_id_ = group_id;
  node->schema_ = std::move(schema);
  node->ComputeHash();
  return LogicalRef(node);
}

}  // namespace algebra
}  // namespace vodak
