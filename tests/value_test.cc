#include "types/value.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <unordered_set>

namespace hirel {
namespace {

TEST(ValueTest, DefaultIsNull) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.type(), ValueType::kNull);
  EXPECT_EQ(v.ToString(), "null");
}

TEST(ValueTest, TypedConstructorsAndAccessors) {
  EXPECT_EQ(Value::Bool(true).AsBool(), true);
  EXPECT_EQ(Value::Int(-7).AsInt(), -7);
  EXPECT_DOUBLE_EQ(Value::Double(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value::String("x").AsString(), "x");
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value::Bool(true).ToString(), "true");
  EXPECT_EQ(Value::Bool(false).ToString(), "false");
  EXPECT_EQ(Value::Int(42).ToString(), "42");
  EXPECT_EQ(Value::Double(2.0).ToString(), "2.0");
  EXPECT_EQ(Value::Double(-2.5e9).ToString(), "-2.5e+09");
  EXPECT_EQ(Value::Double(0.125).ToString(), "0.125");
  EXPECT_EQ(Value::String("tweety").ToString(), "tweety");
}

TEST(ValueTest, DoublesPrintInShortestRoundTripForm) {
  for (double d : {0.1, 1e-7, 1234567.0, 3.141592653589793, -2.5e9}) {
    const std::string text = Value::Double(d).ToString();
    EXPECT_EQ(std::strtod(text.c_str(), nullptr), d) << text;
  }
  // Seven significant digits survive, and whole numbers keep their ".0".
  EXPECT_EQ(Value::Double(1234567.0).ToString(), "1234567.0");
  EXPECT_EQ(Value::Double(3.141592653589793).ToString(), "3.141592653589793");
  EXPECT_EQ(Value::Double(0.1).ToString(), "0.1");
}

TEST(ValueTest, EqualityIsTypeAware) {
  EXPECT_EQ(Value::Int(1), Value::Int(1));
  EXPECT_NE(Value::Int(1), Value::Int(2));
  EXPECT_NE(Value::Int(1), Value::Double(1.0));
  EXPECT_NE(Value::String("1"), Value::Int(1));
  EXPECT_EQ(Value::Null(), Value());
}

TEST(ValueTest, OrderingIsTotalAndTypeFirst) {
  // Null < Bool < Int < Double < String by type tag.
  EXPECT_LT(Value::Null(), Value::Bool(false));
  EXPECT_LT(Value::Bool(true), Value::Int(0));
  EXPECT_LT(Value::Int(100), Value::Double(0.0));
  EXPECT_LT(Value::Double(9.9), Value::String(""));
  // Within type: payload order.
  EXPECT_LT(Value::Int(1), Value::Int(2));
  EXPECT_LT(Value::String("a"), Value::String("b"));
  EXPECT_FALSE(Value::Int(2) < Value::Int(1));
  EXPECT_FALSE(Value::Int(1) < Value::Int(1));
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value::Int(5).Hash(), Value::Int(5).Hash());
  EXPECT_EQ(Value::String("ab").Hash(), Value::String("ab").Hash());
  // Different types with "same" payload should (in practice) hash apart.
  EXPECT_NE(Value::Int(0).Hash(), Value::Bool(false).Hash());
}

TEST(ValueTest, UsableInUnorderedSet) {
  std::unordered_set<Value, ValueHash> set;
  set.insert(Value::Int(1));
  set.insert(Value::Int(1));
  set.insert(Value::String("1"));
  EXPECT_EQ(set.size(), 2u);
  EXPECT_TRUE(set.contains(Value::Int(1)));
}

TEST(ValueTest, TypeNames) {
  EXPECT_STREQ(ValueTypeToString(ValueType::kNull), "null");
  EXPECT_STREQ(ValueTypeToString(ValueType::kBool), "bool");
  EXPECT_STREQ(ValueTypeToString(ValueType::kInt), "int");
  EXPECT_STREQ(ValueTypeToString(ValueType::kDouble), "double");
  EXPECT_STREQ(ValueTypeToString(ValueType::kString), "string");
}

}  // namespace
}  // namespace hirel
