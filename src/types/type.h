#ifndef VODAK_TYPES_TYPE_H_
#define VODAK_TYPES_TYPE_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace vodak {

/// The VML type constructors of §2.1: primitive built-in data types
/// (STRING, INT, REAL, BOOL and typed object identifiers) and the type
/// constructors TUPLE, SET, ARRAY and DICTIONARY.
enum class TypeKind {
  kVoid = 0,   ///< no value (method without result)
  kAny,        ///< top type, used where the binder cannot narrow
  kBool,
  kInt,
  kReal,
  kString,
  kOid,        ///< typed object identifier; `class_name` narrows it
  kTuple,
  kSet,
  kArray,
  kDict,
};

class Type;
using TypeRef = std::shared_ptr<const Type>;

/// Immutable type descriptor. Types are shared_ptr-interned by
/// construction helpers; equality is structural.
class Type {
 public:
  static TypeRef Void();
  static TypeRef Any();
  static TypeRef Bool();
  static TypeRef Int();
  static TypeRef Real();
  static TypeRef String();
  /// Object identifier of instances of `class_name`; empty name means
  /// "any class".
  static TypeRef OidOf(std::string class_name);
  static TypeRef SetOf(TypeRef element);
  static TypeRef ArrayOf(TypeRef element);
  static TypeRef DictOf(TypeRef key, TypeRef value);
  /// TUPLE [name: type, ...]; field order is not significant (the paper
  /// assumes unordered tuple components), fields are stored sorted.
  static TypeRef TupleOf(std::vector<std::pair<std::string, TypeRef>> fields);

  TypeKind kind() const { return kind_; }
  const std::string& class_name() const { return class_name_; }
  /// Element type for SET/ARRAY, value type for DICT.
  const TypeRef& element() const { return element_; }
  /// Key type for DICT.
  const TypeRef& key() const { return key_; }
  const std::vector<std::pair<std::string, TypeRef>>& fields() const {
    return fields_;
  }

  bool IsNumeric() const {
    return kind_ == TypeKind::kInt || kind_ == TypeKind::kReal;
  }

  /// Structural equality. kAny equals only kAny.
  bool Equals(const Type& other) const;
  /// `other` is acceptable where this type is expected (kAny accepts
  /// everything; untyped OID accepts any OID; otherwise structural).
  bool Accepts(const Type& other) const;

  /// VML-style rendering, e.g. "{Paragraph}" for SetOf(OidOf("Paragraph")).
  std::string ToString() const;

  /// Field lookup for tuple types; nullptr when absent.
  const TypeRef* FindField(const std::string& name) const;

 private:
  explicit Type(TypeKind kind) : kind_(kind) {}

  TypeKind kind_;
  std::string class_name_;
  TypeRef element_;
  TypeRef key_;
  std::vector<std::pair<std::string, TypeRef>> fields_;
};

}  // namespace vodak

#endif  // VODAK_TYPES_TYPE_H_
