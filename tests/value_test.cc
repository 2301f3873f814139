#include <gtest/gtest.h>

#include "types/type.h"
#include "types/value.h"

namespace vodak {
namespace {

TEST(OidTest, NullAndOrdering) {
  EXPECT_TRUE(Oid().IsNull());
  EXPECT_FALSE(Oid(1, 1).IsNull());
  EXPECT_LT(Oid(1, 2), Oid(2, 1));
  EXPECT_LT(Oid(1, 1), Oid(1, 2));
  EXPECT_EQ(Oid(3, 4), Oid(3, 4));
  EXPECT_EQ(Oid(2, 7).ToString(), "#2:7");
}

TEST(ValueTest, KindsAndAccessors) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value::Bool(true).AsBool(), true);
  EXPECT_EQ(Value::Int(42).AsInt(), 42);
  EXPECT_DOUBLE_EQ(Value::Real(2.5).AsReal(), 2.5);
  EXPECT_EQ(Value::String("hi").AsString(), "hi");
  EXPECT_EQ(Value::OfOid(Oid(1, 2)).AsOid(), Oid(1, 2));
}

TEST(ValueTest, NumericCrossKindEquality) {
  EXPECT_EQ(Value::Int(1), Value::Real(1.0));
  EXPECT_LT(Value::Int(1), Value::Real(1.5));
  EXPECT_EQ(Value::Int(1).Hash(), Value::Real(1.0).Hash());
}

TEST(ValueTest, SetCanonicalization) {
  Value s = Value::Set({Value::Int(3), Value::Int(1), Value::Int(3),
                        Value::Int(2)});
  ASSERT_EQ(s.AsSet().size(), 3u);
  EXPECT_EQ(s.AsSet()[0], Value::Int(1));
  EXPECT_EQ(s.AsSet()[2], Value::Int(3));
}

TEST(ValueTest, SetEqualityIsOrderInsensitive) {
  Value a = Value::Set({Value::Int(1), Value::Int(2)});
  Value b = Value::Set({Value::Int(2), Value::Int(1)});
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.Hash(), b.Hash());
}

TEST(ValueTest, TupleFieldsSortedAndAccessible) {
  Value t = Value::Tuple({{"b", Value::Int(2)}, {"a", Value::Int(1)}});
  EXPECT_EQ(t.AsTuple()[0].first, "a");
  EXPECT_EQ(t.GetField("b").value(), Value::Int(2));
  EXPECT_FALSE(t.GetField("c").ok());
}

TEST(ValueTest, TupleEqualityIgnoresDeclarationOrder) {
  Value a = Value::Tuple({{"x", Value::Int(1)}, {"y", Value::Int(2)}});
  Value b = Value::Tuple({{"y", Value::Int(2)}, {"x", Value::Int(1)}});
  EXPECT_EQ(a, b);
}

TEST(ValueTest, DictLookup) {
  Value d = Value::Dict({{Value::String("k"), Value::Int(9)}});
  EXPECT_EQ(d.GetKey(Value::String("k")).value(), Value::Int(9));
  EXPECT_FALSE(d.GetKey(Value::String("missing")).ok());
}

TEST(ValueTest, ContainsOnSetsAndArrays) {
  Value s = Value::Set({Value::Int(1), Value::Int(5)});
  EXPECT_TRUE(s.Contains(Value::Int(5)));
  EXPECT_FALSE(s.Contains(Value::Int(4)));
  Value a = Value::Array({Value::Int(7), Value::Int(7)});
  EXPECT_TRUE(a.Contains(Value::Int(7)));
  EXPECT_FALSE(a.Contains(Value::Int(1)));
}

TEST(ValueTest, CompareAcrossKindsIsTotalOrder) {
  std::vector<Value> vals = {
      Value::Null(),        Value::Bool(false),
      Value::Int(1),        Value::String("a"),
      Value::OfOid(Oid(1, 1)),
      Value::Set({Value::Int(1)}),
      Value::Array({Value::Int(1)}),
      Value::Tuple({{"a", Value::Int(1)}}),
      Value::Dict({{Value::Int(1), Value::Int(2)}}),
  };
  for (size_t i = 0; i < vals.size(); ++i) {
    for (size_t j = 0; j < vals.size(); ++j) {
      int c1 = Value::Compare(vals[i], vals[j]);
      int c2 = Value::Compare(vals[j], vals[i]);
      EXPECT_EQ(c1, -c2) << i << " vs " << j;
      if (i == j) {
        EXPECT_EQ(c1, 0);
      }
    }
  }
}

TEST(ValueTest, ToStringRendering) {
  EXPECT_EQ(Value::Null().ToString(), "NIL");
  EXPECT_EQ(Value::Bool(true).ToString(), "TRUE");
  EXPECT_EQ(Value::Int(-3).ToString(), "-3");
  EXPECT_EQ(Value::String("x").ToString(), "'x'");
  EXPECT_EQ(Value::Set({Value::Int(2), Value::Int(1)}).ToString(),
            "{1, 2}");
  EXPECT_EQ(Value::Tuple({{"a", Value::Int(1)}}).ToString(), "[a: 1]");
}

TEST(ValueTest, SetAlgebra) {
  Value a = Value::Set({Value::Int(1), Value::Int(2), Value::Int(3)});
  Value b = Value::Set({Value::Int(2), Value::Int(3), Value::Int(4)});
  EXPECT_EQ(SetUnion(a, b),
            Value::Set({Value::Int(1), Value::Int(2), Value::Int(3),
                        Value::Int(4)}));
  EXPECT_EQ(SetIntersect(a, b),
            Value::Set({Value::Int(2), Value::Int(3)}));
  EXPECT_EQ(SetDifference(a, b), Value::Set({Value::Int(1)}));
  EXPECT_TRUE(SetIsSubset(Value::Set({Value::Int(2)}), a));
  EXPECT_FALSE(SetIsSubset(b, a));
}

TEST(ValueTest, MakeOidSet) {
  Value s = MakeOidSet({Oid(1, 2), Oid(1, 1), Oid(1, 2)});
  ASSERT_EQ(s.AsSet().size(), 2u);
  EXPECT_EQ(s.AsSet()[0].AsOid(), Oid(1, 1));
}

TEST(ValueTest, SetOfOrderedInputStaysCanonical) {
  // Strictly ascending input skips the sort; input that only looks
  // sorted (an adjacent duplicate, or one element out of place) still
  // gets sorted and deduped.
  Value ascending = Value::Set({Value::Int(1), Value::Int(2), Value::Int(5)});
  EXPECT_EQ(ascending.ToString(), "{1, 2, 5}");
  Value duplicate = Value::Set({Value::Int(1), Value::Int(2), Value::Int(2)});
  EXPECT_EQ(duplicate.ToString(), "{1, 2}");
  Value late = Value::Set({Value::Int(1), Value::Int(3), Value::Int(2)});
  EXPECT_EQ(late.ToString(), "{1, 2, 3}");
  // OIDs across classes: Oid ordering is Value ordering.
  std::vector<Oid> oids = {Oid(2, 1), Oid(1, 9), Oid(1, 3), Oid(2, 1)};
  std::vector<Value> values;
  for (Oid o : oids) values.push_back(Value::OfOid(o));
  EXPECT_EQ(MakeOidSet(oids), Value::Set(values));
  EXPECT_EQ(MakeOidSet(oids).AsSet().size(), 3u);
}

TEST(ValueTest, NestedValues) {
  Value inner = Value::Set({Value::Int(1)});
  Value t = Value::Tuple({{"s", inner}});
  Value outer = Value::Set({t, t});
  EXPECT_EQ(outer.AsSet().size(), 1u);
  EXPECT_EQ(outer.AsSet()[0].GetField("s").value(), inner);
}

TEST(TypeTest, ToStringRendering) {
  EXPECT_EQ(Type::Int()->ToString(), "INT");
  EXPECT_EQ(Type::SetOf(Type::OidOf("Paragraph"))->ToString(),
            "{Paragraph}");
  EXPECT_EQ(Type::TupleOf({{"b", Type::Int()}, {"a", Type::String()}})
                ->ToString(),
            "[a: STRING, b: INT]");
  EXPECT_EQ(Type::DictOf(Type::String(), Type::Int())->ToString(),
            "DICTIONARY<STRING,INT>");
  EXPECT_EQ(Type::ArrayOf(Type::Real())->ToString(), "ARRAY<REAL>");
}

TEST(TypeTest, StructuralEquality) {
  EXPECT_TRUE(Type::OidOf("A")->Equals(*Type::OidOf("A")));
  EXPECT_FALSE(Type::OidOf("A")->Equals(*Type::OidOf("B")));
  EXPECT_TRUE(Type::SetOf(Type::Int())->Equals(*Type::SetOf(Type::Int())));
  EXPECT_FALSE(Type::SetOf(Type::Int())->Equals(*Type::SetOf(Type::Real())));
}

TEST(TypeTest, AcceptsWidening) {
  EXPECT_TRUE(Type::Real()->Accepts(*Type::Int()));
  EXPECT_FALSE(Type::Int()->Accepts(*Type::Real()));
  EXPECT_TRUE(Type::Any()->Accepts(*Type::String()));
  EXPECT_TRUE(Type::OidOf("")->Accepts(*Type::OidOf("X")));
  EXPECT_TRUE(Type::OidOf("X")->Accepts(*Type::OidOf("")));
  EXPECT_FALSE(Type::OidOf("X")->Accepts(*Type::OidOf("Y")));
}

TEST(TypeTest, RuntimeTypeOfValues) {
  EXPECT_EQ(Value::Int(1).RuntimeType()->kind(), TypeKind::kInt);
  EXPECT_EQ(Value::Set({Value::String("a")}).RuntimeType()->ToString(),
            "{STRING}");
  EXPECT_EQ(Value::Set({}).RuntimeType()->element()->kind(),
            TypeKind::kAny);
}

}  // namespace
}  // namespace vodak
