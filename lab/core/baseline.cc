#include "core/baseline.h"

#include <cmath>
#include <map>

#include "common/macros.h"

namespace piye {
namespace core {

Result<std::vector<NaiveIntegrator::PublishedRow>>
NaiveIntegrator::PublishGroupedAggregates(
    const std::vector<const source::RemoteSource*>& sources,
    const std::string& group_column, const std::string& value_column) {
  if (sources.empty()) return Status::InvalidArgument("no sources");
  // Groups in first-appearance order over the sources' raw tables, in
  // source order.
  std::map<std::string, std::vector<double>> groups;
  std::vector<std::string> order;
  for (const auto* src : sources) {
    if (!(src->schema() == sources[0]->schema())) {
      return Status::InvalidArgument("naive integration requires matching schemas");
    }
    const relational::Table& raw = src->raw_table_for_testing();
    PIYE_ASSIGN_OR_RETURN(size_t group_idx, raw.schema().IndexOf(group_column));
    PIYE_ASSIGN_OR_RETURN(size_t value_idx, raw.schema().IndexOf(value_column));
    const relational::ColumnVector& group = raw.col(group_idx);
    const relational::ColumnVector& value = raw.col(value_idx);
    const bool value_is_int = value.type() == relational::ColumnType::kInt64;
    if (!value_is_int && value.type() != relational::ColumnType::kDouble &&
        value.CountValid() > 0) {
      return Status::InvalidArgument("column '" + value_column + "' is not numeric");
    }
    for (size_t r = 0; r < raw.num_rows(); ++r) {
      const std::string key = group.ValueAt(r).ToDisplayString();
      if (groups.count(key) == 0) order.push_back(key);
      std::vector<double>& xs = groups[key];
      if (!value.IsNull(r)) {
        xs.push_back(value_is_int ? static_cast<double>(value.IntAt(r))
                                  : value.RealAt(r));
      }
    }
  }
  std::vector<PublishedRow> out;
  for (const auto& key : order) {
    const auto& xs = groups[key];
    PublishedRow row;
    row.group = key;
    row.count = xs.size();
    for (double x : xs) row.mean += x;
    if (!xs.empty()) row.mean /= static_cast<double>(xs.size());
    double acc = 0.0;
    for (double x : xs) acc += (x - row.mean) * (x - row.mean);
    if (!xs.empty()) row.stddev = std::sqrt(acc / static_cast<double>(xs.size()));
    out.push_back(std::move(row));
  }
  return out;
}

}  // namespace core
}  // namespace piye
