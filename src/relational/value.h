#ifndef PIYE_RELATIONAL_VALUE_H_
#define PIYE_RELATIONAL_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>

#include "common/result.h"

namespace piye {
namespace relational {

/// Column types supported by the relational substrate.
enum class ColumnType { kInt64, kDouble, kString, kBool };

const char* ColumnTypeToString(ColumnType type);

/// Value::Compare's order of types: NULL 0 < BOOL 1 < numeric 2 < STRING 3.
inline int TypeRank(ColumnType type) {
  switch (type) {
    case ColumnType::kBool:
      return 1;
    case ColumnType::kInt64:
    case ColumnType::kDouble:
      return 2;
    case ColumnType::kString:
      return 3;
  }
  return 3;
}

/// A dynamically typed SQL value (NULL, INT64, DOUBLE, STRING, or BOOL).
///
/// Values use SQL-ish semantics: NULL compares as absent (any comparison with
/// NULL is false), arithmetic promotes INT64 to DOUBLE when mixed, and
/// ToString renders the literal form used by the serializers.
class Value {
 public:
  /// NULL value.
  Value() : data_(std::monostate{}) {}
  static Value Null() { return Value(); }
  static Value Int(int64_t v) { return Value(Data(v)); }
  static Value Real(double v) { return Value(Data(v)); }
  static Value Str(std::string v) { return Value(Data(std::move(v))); }
  static Value Boolean(bool v) { return Value(Data(v)); }

  bool is_null() const { return std::holds_alternative<std::monostate>(data_); }
  bool is_int() const { return std::holds_alternative<int64_t>(data_); }
  bool is_double() const { return std::holds_alternative<double>(data_); }
  bool is_string() const { return std::holds_alternative<std::string>(data_); }
  bool is_bool() const { return std::holds_alternative<bool>(data_); }
  bool is_numeric() const { return is_int() || is_double(); }

  int64_t AsInt() const { return std::get<int64_t>(data_); }
  double AsDouble() const {
    return is_int() ? static_cast<double>(std::get<int64_t>(data_))
                    : std::get<double>(data_);
  }
  const std::string& AsString() const { return std::get<std::string>(data_); }
  bool AsBool() const { return std::get<bool>(data_); }

  /// SQL literal rendering ("NULL", 42, 3.5, 'text', TRUE).
  std::string ToString() const;
  /// Bare rendering without string quotes (for XML/CSV output).
  std::string ToDisplayString() const;

  /// Three-way comparison for ORDER BY and grouping keys. NULL sorts first.
  /// Cross-type numeric comparisons compare as doubles; otherwise types are
  /// ordered by type id.
  int Compare(const Value& other) const;

  /// SQL equality: false if either side is NULL.
  bool SqlEquals(const Value& other) const {
    if (is_null() || other.is_null()) return false;
    return Compare(other) == 0;
  }

  /// Exact equality including NULL == NULL (used for grouping/dedup keys).
  bool operator==(const Value& other) const { return data_ == other.data_; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }

  /// The ColumnType matching this value; NULL has no type (returns error).
  Result<ColumnType> Type() const;

  /// Rough in-memory footprint (the variant cell plus any string heap
  /// allocation) — the unit of the warehouse's byte-budget accounting.
  size_t ApproxBytes() const {
    return sizeof(Value) + (is_string() ? AsString().capacity() : 0);
  }

  /// Parses `text` as the given type ("NULL" yields a null value).
  static Result<Value> Parse(const std::string& text, ColumnType type);

 private:
  using Data = std::variant<std::monostate, int64_t, double, std::string, bool>;
  explicit Value(Data data) : data_(std::move(data)) {}

  Data data_;
};

/// The rank of `v`'s type, NULL ranking first.
inline int TypeRank(const Value& v) {
  if (v.is_null()) return 0;
  if (v.is_bool()) return 1;
  return v.is_numeric() ? 2 : 3;
}

}  // namespace relational
}  // namespace piye

#endif  // PIYE_RELATIONAL_VALUE_H_
