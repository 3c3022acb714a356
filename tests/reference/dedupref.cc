#include "reference/dedupref.h"

#include <set>

#include "common/macros.h"
#include "reference/rowref.h"

namespace piye {
namespace relational {
namespace dedupref {

Result<Table> Integrate(const std::vector<Source>& sources,
                        const std::vector<std::string>& dedup_keys) {
  Schema schema;
  for (const auto& s : sources) {
    for (const auto& col : s.table.schema().columns()) {
      if (!schema.Contains(col.name)) schema.AddColumn(col);
    }
  }
  const size_t payload_cols = schema.num_columns();
  schema.AddColumn({"_source", ColumnType::kString});
  Table combined(schema);
  for (const auto& s : sources) {
    for (size_t r = 0; r < s.table.num_rows(); ++r) {
      Row row;
      for (size_t c = 0; c < payload_cols; ++c) {
        auto idx = s.table.schema().IndexOf(schema.column(c).name);
        row.push_back(idx.ok() ? s.table.Cell(r, *idx) : Value::Null());
      }
      row.push_back(Value::Str(s.owner));
      combined.AppendRowUnchecked(row);
    }
  }
  if (!dedup_keys.empty()) return DeduplicateByKey(combined, dedup_keys);
  Table out(schema);
  std::set<std::string> seen;
  for (size_t r = 0; r < combined.num_rows(); ++r) {
    std::string key;
    for (size_t c = 0; c < payload_cols; ++c) {
      key += combined.Cell(r, c).ToDisplayString();
      key += '\x1f';
    }
    if (seen.insert(std::move(key)).second) {
      out.AppendRowUnchecked(rowref::RowAt(combined, r));
    }
  }
  return out;
}

Result<Table> DeduplicateByKey(const Table& input,
                               const std::vector<std::string>& key_columns) {
  std::vector<size_t> idx;
  for (const auto& col : key_columns) {
    PIYE_ASSIGN_OR_RETURN(size_t i, input.schema().IndexOf(col));
    idx.push_back(i);
  }
  Table out(input.schema());
  std::set<std::string> seen;
  for (size_t r = 0; r < input.num_rows(); ++r) {
    std::string key;
    for (size_t i : idx) {
      if (!key.empty()) key += '\x1f';
      key += input.Cell(r, i).ToDisplayString();
    }
    if (seen.insert(key).second) out.AppendRowUnchecked(rowref::RowAt(input, r));
  }
  return out;
}

}  // namespace dedupref
}  // namespace relational
}  // namespace piye
