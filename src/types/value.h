#ifndef VODAK_TYPES_VALUE_H_
#define VODAK_TYPES_VALUE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "common/result.h"
#include "types/oid.h"
#include "types/type.h"

namespace vodak {

class Value;

/// Canonical set representation: elements sorted by Value::Compare and
/// deduplicated. Canonical form makes set equality, hashing and the
/// algebra's set semantics structural.
using ValueSet = std::vector<Value>;
/// Ordered sequence (ARRAY constructor).
using ValueArray = std::vector<Value>;
/// Tuple fields sorted by name (the paper treats tuple components as
/// unordered; sorting gives a canonical form).
using ValueTuple = std::vector<std::pair<std::string, Value>>;
/// Dictionary entries sorted by key.
using ValueDict = std::vector<std::pair<Value, Value>>;

/// Immutable runtime value covering every VML domain: NULL, BOOL, INT,
/// REAL, STRING, OID and the TUPLE/SET/ARRAY/DICTIONARY constructors.
/// Container payloads are shared_ptr-held so copies are cheap; a total
/// order (Compare) and a hash make values usable as set elements, join
/// keys and dictionary keys uniformly.
class Value {
 public:
  enum class Kind {
    kNull = 0,
    kBool,
    kInt,
    kReal,
    kString,
    kOid,
    kSet,
    kArray,
    kTuple,
    kDict,
  };

  /// NULL value.
  Value() : repr_(std::monostate{}) {}

  static Value Null() { return Value(); }
  static Value Bool(bool b) { return Value(Repr(b)); }
  static Value Int(int64_t v) { return Value(Repr(v)); }
  static Value Real(double v) { return Value(Repr(v)); }
  static Value String(std::string s);
  static Value OfOid(Oid oid) { return Value(Repr(oid)); }
  /// Builds a canonical set: sorts and dedups `elements` (no sort when
  /// they are already strictly ascending).
  static Value Set(std::vector<Value> elements);
  /// Set that is already sorted and unique (checked in debug builds).
  static Value SetCanonical(std::vector<Value> elements);
  static Value Array(std::vector<Value> elements);
  static Value Tuple(std::vector<std::pair<std::string, Value>> fields);
  static Value Dict(std::vector<std::pair<Value, Value>> entries);

  Kind kind() const { return static_cast<Kind>(repr_.index()); }
  bool is_null() const { return kind() == Kind::kNull; }
  bool is_bool() const { return kind() == Kind::kBool; }
  bool is_int() const { return kind() == Kind::kInt; }
  bool is_real() const { return kind() == Kind::kReal; }
  bool is_string() const { return kind() == Kind::kString; }
  bool is_oid() const { return kind() == Kind::kOid; }
  bool is_set() const { return kind() == Kind::kSet; }
  bool is_array() const { return kind() == Kind::kArray; }
  bool is_tuple() const { return kind() == Kind::kTuple; }
  bool is_dict() const { return kind() == Kind::kDict; }
  bool is_numeric() const { return is_int() || is_real(); }

  bool AsBool() const;
  int64_t AsInt() const;
  double AsReal() const;
  /// Numeric value widened to double (INT or REAL).
  double AsNumeric() const;
  const std::string& AsString() const;
  Oid AsOid() const;
  const ValueSet& AsSet() const;
  const ValueArray& AsArray() const;
  const ValueTuple& AsTuple() const;
  const ValueDict& AsDict() const;

  /// Tuple field access; error if not a tuple or field missing.
  Result<Value> GetField(const std::string& name) const;
  /// Dictionary lookup; error when the key is absent.
  Result<Value> GetKey(const Value& key) const;

  /// Membership test for sets (binary search) and arrays (linear).
  bool Contains(const Value& element) const;

  /// Total order over all values: kinds are ordered first (by Kind enum),
  /// then payloads; INT and REAL compare numerically against each other so
  /// that 1 == 1.0 in predicates.
  static int Compare(const Value& a, const Value& b);

  friend bool operator==(const Value& a, const Value& b) {
    return Compare(a, b) == 0;
  }
  friend bool operator!=(const Value& a, const Value& b) {
    return Compare(a, b) != 0;
  }
  friend bool operator<(const Value& a, const Value& b) {
    return Compare(a, b) < 0;
  }

  uint64_t Hash() const;

  /// Literal-like rendering: strings quoted, sets braced, tuples
  /// bracketed, e.g. `[a: 1, b: {#2:1, #2:4}]`.
  std::string ToString() const;

  /// Runtime type of this value (element types inferred from the first
  /// element; empty containers get ANY element type).
  TypeRef RuntimeType() const;

 private:
  // Distinct box types keep the variant alternatives unique even though
  // ValueSet and ValueArray share the same underlying container.
  struct SetBox {
    ValueSet elems;
  };
  struct ArrayBox {
    ValueArray elems;
  };

  using StringPtr = std::shared_ptr<const std::string>;
  using SetPtr = std::shared_ptr<const SetBox>;
  using ArrayPtr = std::shared_ptr<const ArrayBox>;
  using TuplePtr = std::shared_ptr<const ValueTuple>;
  using DictPtr = std::shared_ptr<const ValueDict>;

  using Repr = std::variant<std::monostate, bool, int64_t, double,
                            StringPtr, Oid, SetPtr, ArrayPtr, TuplePtr,
                            DictPtr>;

  explicit Value(Repr repr) : repr_(std::move(repr)) {}

  Repr repr_;
};

/// Convenience: set of OIDs from a vector (any order, duplicates
/// allowed); sorts the raw ids, not Values.
Value MakeOidSet(std::vector<Oid> oids);

/// Set union / intersection / difference on canonical sets.
Value SetUnion(const Value& a, const Value& b);
Value SetIntersect(const Value& a, const Value& b);
Value SetDifference(const Value& a, const Value& b);
/// True when every element of `a` is in `b` (IS-SUBSET).
bool SetIsSubset(const Value& a, const Value& b);

}  // namespace vodak

namespace std {
template <>
struct hash<vodak::Value> {
  size_t operator()(const vodak::Value& v) const {
    return static_cast<size_t>(v.Hash());
  }
};
}  // namespace std

#endif  // VODAK_TYPES_VALUE_H_
