#ifndef PIYE_PERTURB_SWAPPING_H_
#define PIYE_PERTURB_SWAPPING_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "relational/table.h"

namespace piye {
namespace perturb {

/// Rank swapping: sort a numeric column, then swap each value with a random
/// partner whose rank is within `window_pct` percent of its own. Marginal
/// distributions are preserved exactly (the multiset of values is unchanged)
/// while record-to-value linkage is broken; cross-column correlations decay
/// with the window size.
class RankSwapper {
 public:
  explicit RankSwapper(double window_pct) : window_pct_(window_pct) {}

  /// Swaps within the column, returning the new values in original row order.
  std::vector<double> Swap(const std::vector<double>& xs, Rng* rng) const;

  /// Applies to a numeric table column in place.
  Status SwapColumn(relational::Table* table, const std::string& column,
                    Rng* rng) const;

 private:
  double window_pct_;
};

/// Univariate microaggregation: sort, group into consecutive runs of at
/// least `k` values, replace each value by its group mean. Every released
/// value is shared by >= k records — the numeric analogue of k-anonymity.
class Microaggregator {
 public:
  explicit Microaggregator(size_t k) : k_(k) {}

  std::vector<double> Aggregate(const std::vector<double>& xs) const;

  /// Within-group sum of squared errors of the released values — the
  /// information-loss metric (lower is better utility).
  static double SumOfSquaredErrors(const std::vector<double>& original,
                                   const std::vector<double>& released);

 private:
  size_t k_;
};

}  // namespace perturb
}  // namespace piye

#endif  // PIYE_PERTURB_SWAPPING_H_
