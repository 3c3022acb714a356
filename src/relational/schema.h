#ifndef PIYE_RELATIONAL_SCHEMA_H_
#define PIYE_RELATIONAL_SCHEMA_H_

#include <initializer_list>
#include <string>
#include <vector>

#include "common/result.h"
#include "relational/value.h"

namespace piye {
namespace relational {

/// A named, typed column.
struct Column {
  std::string name;
  ColumnType type = ColumnType::kString;

  bool operator==(const Column& other) const {
    return name == other.name && type == other.type;
  }
};

/// An ordered list of columns. Column names are unique within a schema.
class Schema {
 public:
  Schema() = default;
  Schema(std::initializer_list<Column> cols) : columns_(cols) {}
  explicit Schema(std::vector<Column> cols) : columns_(std::move(cols)) {}

  size_t num_columns() const { return columns_.size(); }
  const Column& column(size_t i) const { return columns_[i]; }
  const std::vector<Column>& columns() const { return columns_; }

  /// Index of the named column, or error.
  Result<size_t> IndexOf(const std::string& name) const;
  bool Contains(const std::string& name) const;

  void AddColumn(Column col) { columns_.push_back(std::move(col)); }

  /// Renames column `i` (used to apply SELECT aliases after projection).
  void SetColumnName(size_t i, std::string name) { columns_[i].name = std::move(name); }

  bool operator==(const Schema& other) const { return columns_ == other.columns_; }

  /// "name:TYPE, name:TYPE, ..."
  std::string ToString() const;

 private:
  std::vector<Column> columns_;
};

}  // namespace relational
}  // namespace piye

#endif  // PIYE_RELATIONAL_SCHEMA_H_
