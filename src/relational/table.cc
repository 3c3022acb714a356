#include "relational/table.h"

#include <algorithm>

#include "common/macros.h"
#include "common/strings.h"

namespace piye {
namespace relational {

Table::Table(Schema schema) : schema_(std::move(schema)) {
  cols_.reserve(schema_.num_columns());
  for (size_t i = 0; i < schema_.num_columns(); ++i) {
    cols_.push_back(std::make_shared<ColumnVector>(schema_.column(i).type));
  }
}

ColumnVector* Table::MutableColumn(size_t i) {
  if (cols_[i].use_count() > 1) {
    cols_[i] = std::make_shared<ColumnVector>(*cols_[i]);
  }
  return cols_[i].get();
}

void Table::AddColumn(Column meta, ColumnVector data) {
  auto col = std::make_shared<ColumnVector>(std::move(data));
  while (col->size() < num_rows_) col->AppendNull();
  schema_.AddColumn(std::move(meta));
  cols_.push_back(std::move(col));
  if (cols_.size() == 1) num_rows_ = cols_[0]->size();
}

void Table::ReplaceColumn(size_t i, ColumnVector data) {
  if (data.type() != schema_.column(i).type) {
    std::vector<Column> columns = schema_.columns();
    columns[i].type = data.type();
    schema_ = Schema(std::move(columns));
  }
  cols_[i] = std::make_shared<ColumnVector>(std::move(data));
}

Table Table::ProjectShared(const std::vector<size_t>& col_indices) const {
  Table out;
  out.num_rows_ = num_rows_;
  out.cols_.reserve(col_indices.size());
  for (size_t i : col_indices) {
    out.schema_.AddColumn(schema_.column(i));
    out.cols_.push_back(cols_[i]);
  }
  return out;
}

Table Table::Gather(const uint32_t* sel, size_t n) const {
  Table out(schema_);
  for (size_t c = 0; c < cols_.size(); ++c) {
    *out.cols_[c] = cols_[c]->Gather(sel, n);
  }
  out.num_rows_ = n;
  return out;
}

Status Table::AppendRow(Row row) {
  if (row.size() != schema_.num_columns()) {
    return Status::InvalidArgument(strings::Format(
        "row arity %zu does not match schema arity %zu", row.size(),
        schema_.num_columns()));
  }
  for (size_t i = 0; i < row.size(); ++i) {
    if (row[i].is_null()) continue;
    auto type = row[i].Type();
    if (!type.ok()) return type.status();
    // INT64 values are accepted into DOUBLE columns (numeric widening).
    if (*type == schema_.column(i).type) continue;
    if (*type == ColumnType::kInt64 && schema_.column(i).type == ColumnType::kDouble) {
      continue;  // AppendValue widens on the way in
    }
    return Status::InvalidArgument(strings::Format(
        "column '%s' expects %s but got %s", schema_.column(i).name.c_str(),
        ColumnTypeToString(schema_.column(i).type), ColumnTypeToString(*type)));
  }
  AppendRowUnchecked(row);
  return Status::OK();
}

void Table::AppendRowUnchecked(const Row& row) {
  for (size_t i = 0; i < cols_.size(); ++i) {
    MutableColumn(i)->AppendValue(i < row.size() ? row[i] : Value::Null());
  }
  ++num_rows_;
}

Result<std::vector<double>> Table::NumericColumn(const std::string& column) const {
  PIYE_ASSIGN_OR_RETURN(size_t col, schema_.IndexOf(column));
  const ColumnVector& cv = *cols_[col];
  if (cv.type() != ColumnType::kInt64 && cv.type() != ColumnType::kDouble &&
      cv.CountValid() > 0) {
    return Status::InvalidArgument("column '" + column + "' is not numeric");
  }
  std::vector<double> out;
  out.reserve(num_rows_);
  for (size_t r = 0; r < num_rows_; ++r) {
    if (cv.IsNull(r)) continue;
    out.push_back(cv.type() == ColumnType::kInt64
                      ? static_cast<double>(cv.IntAt(r))
                      : cv.RealAt(r));
  }
  return out;
}

size_t Table::ApproxBytes() const {
  size_t bytes = sizeof(Table);
  for (const auto& col : schema_.columns()) {
    bytes += sizeof(Column) + col.name.capacity();
  }
  for (const auto& col : cols_) {
    bytes += sizeof(std::shared_ptr<ColumnVector>) + col->ApproxBytes();
  }
  return bytes;
}

}  // namespace relational
}  // namespace piye
