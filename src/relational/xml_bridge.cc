#include "relational/xml_bridge.h"

#include <map>

#include "common/macros.h"

namespace piye {
namespace relational {

Result<Table> TableFromXmlRecords(const xml::XmlNode& root) {
  const auto records = root.ChildElements();
  // Pass 1: collect column names in first-seen order and classify types.
  std::vector<std::string> names;
  std::map<std::string, ColumnType> types;  // narrowest type seen so far
  auto classify = [](const std::string& text) {
    if (Value::Parse(text, ColumnType::kInt64).ok()) return ColumnType::kInt64;
    if (Value::Parse(text, ColumnType::kDouble).ok()) return ColumnType::kDouble;
    return ColumnType::kString;
  };
  auto widen = [](ColumnType a, ColumnType b) {
    if (a == b) return a;
    if ((a == ColumnType::kInt64 && b == ColumnType::kDouble) ||
        (a == ColumnType::kDouble && b == ColumnType::kInt64)) {
      return ColumnType::kDouble;
    }
    return ColumnType::kString;
  };
  for (const xml::XmlNode* record : records) {
    for (const xml::XmlNode* field : record->ChildElements()) {
      const std::string text = field->InnerText();
      auto it = types.find(field->name());
      if (it == types.end()) {
        names.push_back(field->name());
        if (!text.empty()) types.emplace(field->name(), classify(text));
      } else if (!text.empty()) {
        it->second = widen(it->second, classify(text));
      }
    }
  }
  Schema schema;
  for (const auto& name : names) {
    auto it = types.find(name);
    schema.AddColumn({name, it == types.end() ? ColumnType::kString : it->second});
  }
  // Pass 2: materialize rows (missing fields -> NULL).
  Table table(schema);
  for (const xml::XmlNode* record : records) {
    Row row;
    row.reserve(schema.num_columns());
    for (size_t c = 0; c < schema.num_columns(); ++c) {
      const xml::XmlNode* field = record->FirstChild(schema.column(c).name);
      if (field == nullptr) {
        row.push_back(Value::Null());
        continue;
      }
      const std::string text = field->InnerText();
      if (schema.column(c).type == ColumnType::kString) {
        row.push_back(Value::Str(text));
        continue;
      }
      if (text.empty()) {
        row.push_back(Value::Null());
        continue;
      }
      PIYE_ASSIGN_OR_RETURN(Value v, Value::Parse(text, schema.column(c).type));
      row.push_back(std::move(v));
    }
    PIYE_RETURN_NOT_OK(table.AppendRow(std::move(row)));
  }
  return table;
}

}  // namespace relational
}  // namespace piye
