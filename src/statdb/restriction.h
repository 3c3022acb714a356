#ifndef PIYE_STATDB_RESTRICTION_H_
#define PIYE_STATDB_RESTRICTION_H_

#include <vector>

#include "common/result.h"
#include "statdb/aggregate_query.h"

namespace piye {
namespace statdb {

/// Query-set-size control: answer only when the query set C satisfies
/// k <= |C| <= N - k (Adams–Wortman survey, Section 2 "Statistical
/// Databases"). Both bounds matter — a complement of a small set is as
/// revealing as the set itself.
class QuerySetSizeControl {
 public:
  explicit QuerySetSizeControl(size_t k) : k_(k) {}

  size_t k() const { return k_; }

  /// The size rule itself: OK when a query set of `set_size` rows out of
  /// `n` satisfies k <= |C| <= n - k, kPrivacyViolation otherwise (the
  /// message names the admissible range; its upper end is 0 when n < k).
  Status Check(size_t set_size, size_t n) const;

  /// Answers or returns kPrivacyViolation when the size check fails.
  Result<double> Answer(const AggregateQuery& query,
                        const relational::Table& data) const;

 private:
  size_t k_;
};

/// Dobkin–Jones–Lipton overlap control: each answered query set must have
/// size >= `min_size` and pairwise overlap with every previously answered
/// query set of at most `max_overlap` rows. Under these conditions a
/// snooper needs at least 1 + (min_size - 1) / max_overlap queries to
/// compromise an individual value, giving a provable lower bound on attack
/// cost (ACM TODS 4(1), 1979).
///
/// The controller is stateful — it retains the row-id sets of answered
/// queries (the paper's "this requires tracking queries").
class OverlapControl {
 public:
  OverlapControl(size_t min_size, size_t max_overlap)
      : min_size_(min_size), max_overlap_(max_overlap) {}

  /// Answers, or kPrivacyViolation if the size/overlap conditions fail.
  /// Successful answers record the query set in the history.
  Result<double> Answer(const AggregateQuery& query, const relational::Table& data);

  size_t history_size() const { return answered_.size(); }

  /// Minimum number of queries a snooper must issue to compromise one
  /// record under this configuration (the DJL lower bound).
  size_t CompromiseLowerBound() const {
    return max_overlap_ == 0 ? SIZE_MAX : 1 + (min_size_ - 1) / max_overlap_;
  }

 private:
  size_t min_size_;
  size_t max_overlap_;
  std::vector<std::vector<size_t>> answered_;  // sorted row-id sets
};

}  // namespace statdb
}  // namespace piye

#endif  // PIYE_STATDB_RESTRICTION_H_
