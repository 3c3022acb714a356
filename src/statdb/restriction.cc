#include "statdb/restriction.h"

#include <algorithm>

#include "common/macros.h"
#include "common/strings.h"

namespace piye {
namespace statdb {

Status QuerySetSizeControl::Check(size_t set_size, size_t n) const {
  if (set_size < k_ || set_size + k_ > n) {
    return Status::PrivacyViolation(strings::Format(
        "query set size %zu outside [%zu, %zu]", set_size, k_,
        n >= k_ ? n - k_ : 0));
  }
  return Status::OK();
}

Result<double> QuerySetSizeControl::Answer(const AggregateQuery& query,
                                           const relational::Table& data) const {
  PIYE_ASSIGN_OR_RETURN(std::vector<size_t> rows, QuerySet(query, data));
  PIYE_RETURN_NOT_OK(Check(rows.size(), data.num_rows()));
  return EvaluateAggregate(query, data, rows);
}

Result<double> OverlapControl::Answer(const AggregateQuery& query,
                                      const relational::Table& data) {
  PIYE_ASSIGN_OR_RETURN(std::vector<size_t> rows, QuerySet(query, data));
  if (rows.size() < min_size_) {
    return Status::PrivacyViolation(strings::Format(
        "query set size %zu below minimum %zu", rows.size(), min_size_));
  }
  std::vector<size_t> sorted = rows;
  std::sort(sorted.begin(), sorted.end());
  for (const auto& prev : answered_) {
    std::vector<size_t> overlap;
    std::set_intersection(sorted.begin(), sorted.end(), prev.begin(), prev.end(),
                          std::back_inserter(overlap));
    if (overlap.size() > max_overlap_) {
      return Status::PrivacyViolation(strings::Format(
          "query set overlaps a previous query in %zu rows (max %zu)",
          overlap.size(), max_overlap_));
    }
  }
  PIYE_ASSIGN_OR_RETURN(double value, EvaluateAggregate(query, data, rows));
  answered_.push_back(std::move(sorted));
  return value;
}

}  // namespace statdb
}  // namespace piye
