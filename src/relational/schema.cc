#include "relational/schema.h"

#include "common/macros.h"

namespace piye {
namespace relational {

Result<size_t> Schema::IndexOf(const std::string& name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name == name) return i;
  }
  return Status::NotFound("no column named '" + name + "'");
}

bool Schema::Contains(const std::string& name) const {
  for (const auto& c : columns_) {
    if (c.name == name) return true;
  }
  return false;
}

std::string Schema::ToString() const {
  std::string out;
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (i > 0) out += ", ";
    out += columns_[i].name;
    out += ':';
    out += ColumnTypeToString(columns_[i].type);
  }
  return out;
}

}  // namespace relational
}  // namespace piye
