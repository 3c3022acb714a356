#include "relational/value.h"

#include <charconv>
#include <cmath>
#include <cstdlib>

#include "common/strings.h"

namespace piye {
namespace relational {

const char* ColumnTypeToString(ColumnType type) {
  switch (type) {
    case ColumnType::kInt64:
      return "INT64";
    case ColumnType::kDouble:
      return "DOUBLE";
    case ColumnType::kString:
      return "STRING";
    case ColumnType::kBool:
      return "BOOL";
  }
  return "?";
}

namespace {

// Shortest representation that round-trips exactly (std::to_chars), so
// displayed and parsed-back doubles keep their bits.
std::string DoubleToString(double x) {
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), x);
  return ec == std::errc() ? std::string(buf, ptr) : strings::Format("%.17g", x);
}

}  // namespace

std::string Value::ToString() const {
  if (is_null()) return "NULL";
  if (is_int()) return std::to_string(AsInt());
  if (is_double()) return DoubleToString(std::get<double>(data_));
  if (is_bool()) return AsBool() ? "TRUE" : "FALSE";
  return "'" + AsString() + "'";
}

std::string Value::ToDisplayString() const {
  if (is_string()) return AsString();
  return ToString();
}

namespace {
int TypeRank(const Value& v) {
  if (v.is_null()) return 0;
  if (v.is_bool()) return 1;
  if (v.is_int() || v.is_double()) return 2;
  return 3;  // string
}
}  // namespace

int Value::Compare(const Value& other) const {
  const int ra = TypeRank(*this), rb = TypeRank(other);
  if (ra != rb) return ra < rb ? -1 : 1;
  if (is_null()) return 0;
  if (is_bool()) {
    return AsBool() == other.AsBool() ? 0 : (AsBool() ? 1 : -1);
  }
  if (is_numeric()) {
    const double a = AsDouble(), b = other.AsDouble();
    if (a < b) return -1;
    if (a > b) return 1;
    return 0;
  }
  const std::string& a = AsString();
  const std::string& b = other.AsString();
  if (a < b) return -1;
  if (a > b) return 1;
  return 0;
}

Result<ColumnType> Value::Type() const {
  if (is_int()) return ColumnType::kInt64;
  if (is_double()) return ColumnType::kDouble;
  if (is_string()) return ColumnType::kString;
  if (is_bool()) return ColumnType::kBool;
  return Status::InvalidArgument("NULL has no column type");
}

Result<Value> Value::Parse(const std::string& text, ColumnType type) {
  const std::string t = strings::Trim(text);
  if (t == "NULL" || t.empty()) return Value::Null();
  switch (type) {
    case ColumnType::kInt64: {
      char* end = nullptr;
      const long long v = std::strtoll(t.c_str(), &end, 10);
      if (end == nullptr || *end != '\0') {
        return Status::ParseError("not an integer: '" + t + "'");
      }
      return Value::Int(v);
    }
    case ColumnType::kDouble: {
      char* end = nullptr;
      const double v = std::strtod(t.c_str(), &end);
      if (end == nullptr || *end != '\0') {
        return Status::ParseError("not a double: '" + t + "'");
      }
      return Value::Real(v);
    }
    case ColumnType::kBool: {
      const std::string lower = strings::ToLower(t);
      if (lower == "true" || lower == "1") return Value::Boolean(true);
      if (lower == "false" || lower == "0") return Value::Boolean(false);
      return Status::ParseError("not a bool: '" + t + "'");
    }
    case ColumnType::kString:
      return Value::Str(t);
  }
  return Status::Internal("unreachable");
}

}  // namespace relational
}  // namespace piye
