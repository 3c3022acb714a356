#include "core/baseline.h"

#include <cmath>
#include <map>

#include "common/macros.h"

namespace piye {
namespace core {

Result<relational::Table> NaiveIntegrator::IntegrateAll(
    const std::vector<const source::RemoteSource*>& sources) {
  if (sources.empty()) return Status::InvalidArgument("no sources");
  relational::Schema schema = sources[0]->schema();
  schema.AddColumn({"_source", relational::ColumnType::kString});
  relational::Table out(schema);
  for (const auto* src : sources) {
    if (!(src->schema() == sources[0]->schema())) {
      return Status::InvalidArgument("naive integration requires matching schemas");
    }
    // The raw columns shared copy-on-write, plus the provenance column.
    relational::Table tagged = src->raw_table_for_testing();
    relational::ColumnVector owner(relational::ColumnType::kString);
    owner.AppendStrRun(src->owner(), tagged.num_rows());
    tagged.AddColumn({"_source", relational::ColumnType::kString}, std::move(owner));
    out.AppendTable(tagged);
  }
  return out;
}

Result<std::vector<NaiveIntegrator::PublishedRow>>
NaiveIntegrator::PublishGroupedAggregates(
    const std::vector<const source::RemoteSource*>& sources,
    const std::string& group_column, const std::string& value_column) {
  PIYE_ASSIGN_OR_RETURN(relational::Table all, IntegrateAll(sources));
  PIYE_ASSIGN_OR_RETURN(size_t group_idx, all.schema().IndexOf(group_column));
  PIYE_ASSIGN_OR_RETURN(size_t value_idx, all.schema().IndexOf(value_column));
  const relational::ColumnVector& group = all.col(group_idx);
  const relational::ColumnVector& value = all.col(value_idx);
  const bool value_is_int = value.type() == relational::ColumnType::kInt64;
  if (!value_is_int && value.type() != relational::ColumnType::kDouble &&
      value.CountValid() > 0) {
    return Status::InvalidArgument("column '" + value_column + "' is not numeric");
  }
  std::map<std::string, std::vector<double>> groups;
  std::vector<std::string> order;
  for (size_t r = 0; r < all.num_rows(); ++r) {
    const std::string key = group.ValueAt(r).ToDisplayString();
    if (groups.count(key) == 0) order.push_back(key);
    if (!value.IsNull(r)) {
      groups[key].push_back(value_is_int ? static_cast<double>(value.IntAt(r))
                                         : value.RealAt(r));
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
