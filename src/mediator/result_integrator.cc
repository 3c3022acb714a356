#include "mediator/result_integrator.h"

#include <algorithm>
#include <set>

#include "common/macros.h"
#include "common/strings.h"
#include "linkage/record_linkage.h"

namespace piye {
namespace mediator {

namespace {

const char* kAggPrefixes[] = {"count_", "sum_", "avg_", "min_", "max_", "stddev_"};

/// Maps one source-local column name to its mediated name (or returns the
/// input unchanged when no mapping exists).
std::string MediatedName(const match::MediatedSchema& schema,
                         const std::string& owner, const std::string& column) {
  for (const auto& attr : schema.attributes()) {
    for (const auto& m : attr.mappings) {
      if (m.source == owner && m.column == column) return attr.name;
    }
  }
  // Aggregate aliases: func_column → func_attribute.
  for (const char* prefix : kAggPrefixes) {
    if (strings::StartsWith(column, prefix)) {
      const std::string inner = column.substr(std::string(prefix).size());
      const std::string mapped = MediatedName(schema, owner, inner);
      if (mapped != inner) return std::string(prefix) + mapped;
      return column;
    }
  }
  return column;
}

}  // namespace

ResultIntegrator::SourceResult ResultIntegrator::FromSource(
    std::string owner, relational::Table table) const {
  SourceResult out{std::move(owner), std::move(table)};
  for (size_t c = 0; c < out.table.schema().num_columns(); ++c) {
    out.table.mutable_schema().SetColumnName(
        c, MediatedName(*schema_, out.owner, out.table.schema().column(c).name));
  }
  return out;
}

Result<relational::Table> ResultIntegrator::Integrate(
    const std::vector<SourceResult>& results,
    const std::vector<std::string>& dedup_keys) const {
  // Ordered union of mediated column names.
  std::vector<relational::Column> columns;
  auto has_column = [&columns](const std::string& name) {
    return std::any_of(columns.begin(), columns.end(),
                       [&name](const relational::Column& c) { return c.name == name; });
  };
  for (const auto& r : results) {
    for (const auto& col : r.table.schema().columns()) {
      if (!has_column(col.name)) columns.push_back(col);
    }
  }
  // Column-wise assembly: each mediated column is stitched from the sources'
  // columns — whole-column appends when the type matches, per-cell coercion
  // (AppendValue rules) when a later source disagrees on the type, and NULL
  // runs when a source lacks the column entirely.
  size_t total_rows = 0;
  for (const auto& r : results) total_rows += r.table.num_rows();
  relational::Table combined;
  for (const auto& column : columns) {
    relational::ColumnVector data(column.type);
    data.Reserve(total_rows);
    for (const auto& r : results) {
      const size_t n = r.table.num_rows();
      auto idx = r.table.schema().IndexOf(column.name);
      if (!idx.ok()) {
        for (size_t i = 0; i < n; ++i) data.AppendNull();
      } else if (r.table.schema().column(*idx).type == column.type) {
        data.AppendColumn(r.table.col(*idx));
      } else {
        const relational::ColumnVector& src = r.table.col(*idx);
        for (size_t i = 0; i < n; ++i) data.AppendValue(src.ValueAt(i));
      }
    }
    combined.AddColumn(column, std::move(data));
  }
  {
    relational::ColumnVector src_col(relational::ColumnType::kString);
    src_col.Reserve(total_rows);
    for (const auto& r : results) {
      for (size_t i = 0; i < r.table.num_rows(); ++i) src_col.AppendStr(r.owner);
    }
    combined.AddColumn({"_source", relational::ColumnType::kString},
                       std::move(src_col));
  }
  if (!dedup_keys.empty()) {
    return linkage::DeduplicateByKey(combined, dedup_keys);
  }
  // Whole-row distinct ignoring provenance.
  std::set<std::string> seen;
  const size_t payload_cols = columns.size();
  std::vector<uint32_t> sel;
  sel.reserve(combined.num_rows());
  for (size_t r = 0; r < combined.num_rows(); ++r) {
    std::string key;
    for (size_t c = 0; c < payload_cols; ++c) {
      key += combined.col(c).ValueAt(r).ToDisplayString();
      key += '\x1f';
    }
    if (seen.insert(std::move(key)).second) sel.push_back(static_cast<uint32_t>(r));
  }
  return combined.Gather(sel);
}

}  // namespace mediator
}  // namespace piye
