#include "types/value.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"

namespace vodak {

Value Value::String(std::string s) {
  return Value(Repr(std::make_shared<const std::string>(std::move(s))));
}

Value Value::Set(std::vector<Value> elements) {
  // One linear pass first: inputs drained in extent order are often
  // already strictly ascending, and then there is nothing to sort.
  auto less = [](const Value& a, const Value& b) { return Compare(a, b) < 0; };
  if (std::adjacent_find(elements.begin(), elements.end(),
                         [&less](const Value& a, const Value& b) {
                           return !less(a, b);
                         }) != elements.end()) {
    std::sort(elements.begin(), elements.end(), less);
    elements.erase(std::unique(elements.begin(), elements.end(),
                               [](const Value& a, const Value& b) {
                                 return Compare(a, b) == 0;
                               }),
                   elements.end());
  }
  return Value(
      Repr(std::make_shared<const SetBox>(SetBox{std::move(elements)})));
}

Value Value::SetCanonical(std::vector<Value> elements) {
#ifndef NDEBUG
  for (size_t i = 1; i < elements.size(); ++i) {
    VODAK_DCHECK(Compare(elements[i - 1], elements[i]) < 0);
  }
#endif
  return Value(
      Repr(std::make_shared<const SetBox>(SetBox{std::move(elements)})));
}

Value Value::Array(std::vector<Value> elements) {
  return Value(
      Repr(std::make_shared<const ArrayBox>(ArrayBox{std::move(elements)})));
}

Value Value::Tuple(std::vector<std::pair<std::string, Value>> fields) {
  std::sort(fields.begin(), fields.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return Value(Repr(std::make_shared<const ValueTuple>(std::move(fields))));
}

Value Value::Dict(std::vector<std::pair<Value, Value>> entries) {
  std::sort(entries.begin(), entries.end(), [](const auto& a, const auto& b) {
    return Compare(a.first, b.first) < 0;
  });
  return Value(Repr(std::make_shared<const ValueDict>(std::move(entries))));
}

bool Value::AsBool() const {
  VODAK_CHECK(is_bool()) << "not a BOOL: " << ToString();
  return std::get<bool>(repr_);
}

int64_t Value::AsInt() const {
  VODAK_CHECK(is_int()) << "not an INT: " << ToString();
  return std::get<int64_t>(repr_);
}

double Value::AsReal() const {
  VODAK_CHECK(is_real()) << "not a REAL: " << ToString();
  return std::get<double>(repr_);
}

double Value::AsNumeric() const {
  if (is_int()) return static_cast<double>(std::get<int64_t>(repr_));
  VODAK_CHECK(is_real()) << "not numeric: " << ToString();
  return std::get<double>(repr_);
}

const std::string& Value::AsString() const {
  VODAK_CHECK(is_string()) << "not a STRING: " << ToString();
  return *std::get<StringPtr>(repr_);
}

Oid Value::AsOid() const {
  VODAK_CHECK(is_oid()) << "not an OID: " << ToString();
  return std::get<Oid>(repr_);
}

const ValueSet& Value::AsSet() const {
  VODAK_CHECK(is_set()) << "not a SET: " << ToString();
  return std::get<SetPtr>(repr_)->elems;
}

const ValueArray& Value::AsArray() const {
  VODAK_CHECK(is_array()) << "not an ARRAY: " << ToString();
  return std::get<ArrayPtr>(repr_)->elems;
}

const ValueTuple& Value::AsTuple() const {
  VODAK_CHECK(is_tuple()) << "not a TUPLE: " << ToString();
  return *std::get<TuplePtr>(repr_);
}

const ValueDict& Value::AsDict() const {
  VODAK_CHECK(is_dict()) << "not a DICTIONARY: " << ToString();
  return *std::get<DictPtr>(repr_);
}

Result<Value> Value::GetField(const std::string& name) const {
  if (!is_tuple()) {
    return Status::TypeError("field access '" + name +
                             "' on non-tuple value " + ToString());
  }
  for (const auto& [fname, fval] : AsTuple()) {
    if (fname == name) return fval;
  }
  return Status::NotFound("tuple has no field '" + name + "'");
}

Result<Value> Value::GetKey(const Value& key) const {
  if (!is_dict()) {
    return Status::TypeError("key lookup on non-dictionary value " +
                             ToString());
  }
  const ValueDict& d = AsDict();
  auto it = std::lower_bound(
      d.begin(), d.end(), key,
      [](const auto& entry, const Value& k) {
        return Compare(entry.first, k) < 0;
      });
  if (it != d.end() && Compare(it->first, key) == 0) return it->second;
  return Status::NotFound("dictionary has no key " + key.ToString());
}

bool Value::Contains(const Value& element) const {
  if (is_set()) {
    const ValueSet& s = AsSet();
    return std::binary_search(
        s.begin(), s.end(), element,
        [](const Value& a, const Value& b) { return Compare(a, b) < 0; });
  }
  if (is_array()) {
    const ValueArray& a = AsArray();
    for (const Value& v : a) {
      if (Compare(v, element) == 0) return true;
    }
    return false;
  }
  return false;
}

namespace {
int Sign(double d) { return d < 0 ? -1 : (d > 0 ? 1 : 0); }

template <typename Seq, typename Cmp>
int CompareSeq(const Seq& a, const Seq& b, Cmp cmp) {
  size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    int c = cmp(a[i], b[i]);
    if (c != 0) return c;
  }
  if (a.size() < b.size()) return -1;
  if (a.size() > b.size()) return 1;
  return 0;
}
}  // namespace

int Value::Compare(const Value& a, const Value& b) {
  // INT and REAL compare numerically against each other.
  if (a.is_numeric() && b.is_numeric() && a.kind() != b.kind()) {
    return Sign(a.AsNumeric() - b.AsNumeric());
  }
  if (a.kind() != b.kind()) {
    return static_cast<int>(a.kind()) < static_cast<int>(b.kind()) ? -1 : 1;
  }
  switch (a.kind()) {
    case Kind::kNull:
      return 0;
    case Kind::kBool:
      return static_cast<int>(a.AsBool()) - static_cast<int>(b.AsBool());
    case Kind::kInt: {
      int64_t x = a.AsInt(), y = b.AsInt();
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    case Kind::kReal:
      return Sign(a.AsReal() - b.AsReal());
    case Kind::kString:
      return a.AsString().compare(b.AsString());
    case Kind::kOid: {
      Oid x = a.AsOid(), y = b.AsOid();
      return x < y ? -1 : (y < x ? 1 : 0);
    }
    case Kind::kSet:
      return CompareSeq(a.AsSet(), b.AsSet(), &Value::Compare);
    case Kind::kArray:
      return CompareSeq(a.AsArray(), b.AsArray(), &Value::Compare);
    case Kind::kTuple:
      return CompareSeq(a.AsTuple(), b.AsTuple(),
                        [](const auto& x, const auto& y) {
                          int c = x.first.compare(y.first);
                          if (c != 0) return c < 0 ? -1 : 1;
                          return Compare(x.second, y.second);
                        });
    case Kind::kDict:
      return CompareSeq(a.AsDict(), b.AsDict(),
                        [](const auto& x, const auto& y) {
                          int c = Compare(x.first, y.first);
                          if (c != 0) return c;
                          return Compare(x.second, y.second);
                        });
  }
  return 0;
}

uint64_t Value::Hash() const {
  uint64_t h = static_cast<uint64_t>(kind()) * 0x2545f4914f6cdd1dULL;
  switch (kind()) {
    case Kind::kNull:
      return h;
    case Kind::kBool:
      return HashCombine(h, AsBool() ? 1 : 0);
    case Kind::kInt: {
      // INT hashes like the numerically-equal REAL so that 1 == 1.0 also
      // implies equal hashes.
      double d = AsNumeric();
      return HashCombine(0xabcddcbaULL, HashBytes(&d, sizeof(d)));
    }
    case Kind::kReal: {
      double d = AsReal();
      if (d == static_cast<double>(static_cast<int64_t>(d))) {
        return HashCombine(0xabcddcbaULL, HashBytes(&d, sizeof(d)));
      }
      return HashCombine(0xabcddcbaULL, HashBytes(&d, sizeof(d)));
    }
    case Kind::kString:
      return HashCombine(h, HashBytes(AsString().data(), AsString().size()));
    case Kind::kOid:
      return HashCombine(h, AsOid().Hash());
    case Kind::kSet: {
      for (const Value& v : AsSet()) h = HashCombine(h, v.Hash());
      return h;
    }
    case Kind::kArray: {
      for (const Value& v : AsArray()) h = HashCombine(h, v.Hash());
      return h;
    }
    case Kind::kTuple: {
      for (const auto& [n, v] : AsTuple()) {
        h = HashCombine(h, HashBytes(n.data(), n.size()));
        h = HashCombine(h, v.Hash());
      }
      return h;
    }
    case Kind::kDict: {
      for (const auto& [k, v] : AsDict()) {
        h = HashCombine(h, k.Hash());
        h = HashCombine(h, v.Hash());
      }
      return h;
    }
  }
  return h;
}

std::string Value::ToString() const {
  switch (kind()) {
    case Kind::kNull:
      return "NIL";
    case Kind::kBool:
      return AsBool() ? "TRUE" : "FALSE";
    case Kind::kInt:
      return std::to_string(AsInt());
    case Kind::kReal: {
      std::string s = std::to_string(AsReal());
      return s;
    }
    case Kind::kString:
      return "'" + AsString() + "'";
    case Kind::kOid:
      return AsOid().ToString();
    case Kind::kSet: {
      std::string out = "{";
      const ValueSet& s = AsSet();
      for (size_t i = 0; i < s.size(); ++i) {
        if (i) out += ", ";
        out += s[i].ToString();
      }
      return out + "}";
    }
    case Kind::kArray: {
      std::string out = "<";
      const ValueArray& a = AsArray();
      for (size_t i = 0; i < a.size(); ++i) {
        if (i) out += ", ";
        out += a[i].ToString();
      }
      return out + ">";
    }
    case Kind::kTuple: {
      std::string out = "[";
      const ValueTuple& t = AsTuple();
      for (size_t i = 0; i < t.size(); ++i) {
        if (i) out += ", ";
        out += t[i].first + ": " + t[i].second.ToString();
      }
      return out + "]";
    }
    case Kind::kDict: {
      std::string out = "DICT(";
      const ValueDict& d = AsDict();
      for (size_t i = 0; i < d.size(); ++i) {
        if (i) out += ", ";
        out += d[i].first.ToString() + " -> " + d[i].second.ToString();
      }
      return out + ")";
    }
  }
  return "?";
}

TypeRef Value::RuntimeType() const {
  switch (kind()) {
    case Kind::kNull:
      return Type::Any();
    case Kind::kBool:
      return Type::Bool();
    case Kind::kInt:
      return Type::Int();
    case Kind::kReal:
      return Type::Real();
    case Kind::kString:
      return Type::String();
    case Kind::kOid:
      return Type::OidOf("");
    case Kind::kSet:
      return Type::SetOf(AsSet().empty() ? Type::Any()
                                         : AsSet()[0].RuntimeType());
    case Kind::kArray:
      return Type::ArrayOf(AsArray().empty() ? Type::Any()
                                             : AsArray()[0].RuntimeType());
    case Kind::kTuple: {
      std::vector<std::pair<std::string, TypeRef>> fields;
      for (const auto& [n, v] : AsTuple()) {
        fields.emplace_back(n, v.RuntimeType());
      }
      return Type::TupleOf(std::move(fields));
    }
    case Kind::kDict: {
      if (AsDict().empty()) return Type::DictOf(Type::Any(), Type::Any());
      return Type::DictOf(AsDict()[0].first.RuntimeType(),
                          AsDict()[0].second.RuntimeType());
    }
  }
  return Type::Any();
}

Value MakeOidSet(std::vector<Oid> oids) {
  // Oid::operator< orders exactly as Value::Compare orders OID values,
  // so sorting the raw ids yields the canonical set order.
  std::sort(oids.begin(), oids.end());
  oids.erase(std::unique(oids.begin(), oids.end()), oids.end());
  std::vector<Value> vals;
  vals.reserve(oids.size());
  for (Oid o : oids) vals.push_back(Value::OfOid(o));
  return Value::SetCanonical(std::move(vals));
}

Value SetUnion(const Value& a, const Value& b) {
  std::vector<Value> out;
  const ValueSet& x = a.AsSet();
  const ValueSet& y = b.AsSet();
  out.reserve(x.size() + y.size());
  std::set_union(x.begin(), x.end(), y.begin(), y.end(),
                 std::back_inserter(out),
                 [](const Value& p, const Value& q) {
                   return Value::Compare(p, q) < 0;
                 });
  return Value::SetCanonical(std::move(out));
}

Value SetIntersect(const Value& a, const Value& b) {
  std::vector<Value> out;
  const ValueSet& x = a.AsSet();
  const ValueSet& y = b.AsSet();
  std::set_intersection(x.begin(), x.end(), y.begin(), y.end(),
                        std::back_inserter(out),
                        [](const Value& p, const Value& q) {
                          return Value::Compare(p, q) < 0;
                        });
  return Value::SetCanonical(std::move(out));
}

Value SetDifference(const Value& a, const Value& b) {
  std::vector<Value> out;
  const ValueSet& x = a.AsSet();
  const ValueSet& y = b.AsSet();
  std::set_difference(x.begin(), x.end(), y.begin(), y.end(),
                      std::back_inserter(out),
                      [](const Value& p, const Value& q) {
                        return Value::Compare(p, q) < 0;
                      });
  return Value::SetCanonical(std::move(out));
}

bool SetIsSubset(const Value& a, const Value& b) {
  const ValueSet& x = a.AsSet();
  const ValueSet& y = b.AsSet();
  return std::includes(y.begin(), y.end(), x.begin(), x.end(),
                       [](const Value& p, const Value& q) {
                         return Value::Compare(p, q) < 0;
                       });
}

}  // namespace vodak
