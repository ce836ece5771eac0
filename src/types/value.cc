#include "types/value.h"

#include <functional>
#include <sstream>

namespace hirel {

const char* ValueTypeToString(ValueType type) {
  switch (type) {
    case ValueType::kNull:
      return "null";
    case ValueType::kBool:
      return "bool";
    case ValueType::kInt:
      return "int";
    case ValueType::kDouble:
      return "double";
    case ValueType::kString:
      return "string";
  }
  return "unknown";
}

ValueType Value::type() const {
  return static_cast<ValueType>(data_.index());
}

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kNull:
      return "null";
    case ValueType::kBool:
      return AsBool() ? "true" : "false";
    case ValueType::kInt:
      return std::to_string(AsInt());
    case ValueType::kDouble: {
      std::ostringstream oss;
      oss << AsDouble();
      std::string out = oss.str();
      // Whole numbers keep a ".0" so they read as doubles ("2.0"); the
      // exponent form ("-2.5e+09"), inf and nan already do.
      if (out.find_first_of(".en") == std::string::npos) out += ".0";
      return out;
    }
    case ValueType::kString:
      return AsString();
  }
  return "?";
}

size_t Value::Hash() const {
  size_t seed = static_cast<size_t>(type()) * 0x9e3779b97f4a7c15ULL;
  switch (type()) {
    case ValueType::kNull:
      return seed;
    case ValueType::kBool:
      return seed ^ std::hash<bool>{}(AsBool());
    case ValueType::kInt:
      return seed ^ std::hash<int64_t>{}(AsInt());
    case ValueType::kDouble:
      return seed ^ std::hash<double>{}(AsDouble());
    case ValueType::kString:
      return seed ^ std::hash<std::string>{}(AsString());
  }
  return seed;
}

bool operator<(const Value& a, const Value& b) {
  if (a.type() != b.type()) {
    return static_cast<int>(a.type()) < static_cast<int>(b.type());
  }
  switch (a.type()) {
    case ValueType::kNull:
      return false;
    case ValueType::kBool:
      return a.AsBool() < b.AsBool();
    case ValueType::kInt:
      return a.AsInt() < b.AsInt();
    case ValueType::kDouble:
      return a.AsDouble() < b.AsDouble();
    case ValueType::kString:
      return a.AsString() < b.AsString();
  }
  return false;
}

}  // namespace hirel
