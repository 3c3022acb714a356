#include "statdb/aggregate_query.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/macros.h"
#include "relational/agg.h"
#include "relational/executor.h"

namespace piye {
namespace statdb {

std::string AggregateQuery::Canonical() const {
  std::string out = relational::AggFuncToString(func);
  out += "(";
  out += column;
  out += ")|";
  out += predicate != nullptr ? predicate->ToString() : "TRUE";
  return out;
}

Result<std::vector<size_t>> QuerySet(const AggregateQuery& query,
                                     const relational::Table& data) {
  if (query.predicate == nullptr) {
    std::vector<size_t> rows(data.num_rows());
    std::iota(rows.begin(), rows.end(), size_t{0});
    return rows;
  }
  PIYE_ASSIGN_OR_RETURN(
      const std::vector<uint32_t> sel,
      relational::Executor::FilterSelection(data, *query.predicate));
  return std::vector<size_t>(sel.begin(), sel.end());
}

Result<double> EvaluateAggregate(const AggregateQuery& query,
                                 const relational::Table& data,
                                 const std::vector<size_t>& rows) {
  PIYE_ASSIGN_OR_RETURN(size_t col, data.schema().IndexOf(query.column));
  // Column-at-a-time over the typed buffer; Welford accumulation (via the
  // shared NumericAgg) keeps STDDEV stable when mean >> stddev, where the
  // old sum-of-squares formula cancelled catastrophically.
  const relational::ColumnVector& cv = data.col(col);
  const bool numeric = cv.type() == relational::ColumnType::kInt64 ||
                       cv.type() == relational::ColumnType::kDouble;
  const bool is_int = cv.type() == relational::ColumnType::kInt64;
  relational::NumericAgg agg;
  double mn = 0.0, mx = 0.0;
  for (size_t r : rows) {
    if (cv.IsNull(r)) continue;
    if (!numeric) {
      return Status::InvalidArgument("column '" + query.column + "' is not numeric");
    }
    const double x = is_int ? static_cast<double>(cv.IntAt(r)) : cv.RealAt(r);
    if (agg.count == 0) {
      mn = mx = x;
    } else {
      mn = std::min(mn, x);
      mx = std::max(mx, x);
    }
    agg.AddReal(x);
  }
  const size_t count = agg.count;
  switch (query.func) {
    case relational::AggFunc::kCount:
      return static_cast<double>(count);
    case relational::AggFunc::kSum:
      return agg.sum;
    case relational::AggFunc::kAvg:
      if (count == 0) return Status::InvalidArgument("AVG over empty query set");
      return agg.sum / static_cast<double>(count);
    case relational::AggFunc::kMin:
      if (count == 0) return Status::InvalidArgument("MIN over empty query set");
      return mn;
    case relational::AggFunc::kMax:
      if (count == 0) return Status::InvalidArgument("MAX over empty query set");
      return mx;
    case relational::AggFunc::kStdDev:
      if (count == 0) return Status::InvalidArgument("STDDEV over empty query set");
      return std::sqrt(agg.m2 / static_cast<double>(count));
  }
  return Status::Internal("unhandled aggregate");
}

}  // namespace statdb
}  // namespace piye
