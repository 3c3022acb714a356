#include "perturb/swapping.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/macros.h"

namespace piye {
namespace perturb {

std::vector<double> RankSwapper::Swap(const std::vector<double>& xs, Rng* rng) const {
  const size_t n = xs.size();
  if (n < 2) return xs;
  // Sort (value, original index) pairs in one contiguous buffer — every
  // comparison touches adjacent memory, unlike an indirect index sort that
  // chases xs[] randomly. The index doubles as a deterministic tie-break.
  std::vector<std::pair<double, uint32_t>> sorted(n);
  for (size_t i = 0; i < n; ++i) sorted[i] = {xs[i], static_cast<uint32_t>(i)};
  std::sort(sorted.begin(), sorted.end());
  // Swap values within rank windows.
  const size_t window = std::max<size_t>(
      1, static_cast<size_t>(std::ceil(window_pct_ / 100.0 * static_cast<double>(n))));
  for (size_t r = 0; r + 1 < n; ++r) {
    const size_t hi = std::min(n - 1, r + window);
    const size_t partner = r + rng->NextBounded(hi - r + 1);
    std::swap(sorted[r].first, sorted[partner].first);
  }
  std::vector<double> out(n);
  for (size_t r = 0; r < n; ++r) out[sorted[r].second] = sorted[r].first;
  return out;
}

Status RankSwapper::SwapColumn(relational::Table* table, const std::string& column,
                               Rng* rng) const {
  PIYE_ASSIGN_OR_RETURN(size_t col, table->schema().IndexOf(column));
  const relational::ColumnType type = table->schema().column(col).type;
  const relational::ColumnVector& c = table->col(col);
  const size_t n = table->num_rows();
  if (type != relational::ColumnType::kInt64 &&
      type != relational::ColumnType::kDouble) {
    // Matches the row engine: a non-numeric column only errors if it holds
    // an actual (non-NULL) value.
    if (c.CountValid() == 0) return Status::OK();
    return Status::InvalidArgument("column '" + column + "' is not numeric");
  }
  // NULL-aware column scan with an explicit row<->value index map: value j
  // of the dense vector belongs to table row rows[j]. The swapped values
  // are scattered back through that map, so NULL rows keep their slots and
  // non-NULL rows get exactly their own swapped value — a raw write-back by
  // value index would misalign as soon as NULLs are interleaved.
  std::vector<double> xs;
  std::vector<uint32_t> rows;
  xs.reserve(n);
  rows.reserve(n);
  const bool is_int = type == relational::ColumnType::kInt64;
  for (size_t i = 0; i < n; ++i) {
    if (c.IsNull(i)) continue;
    xs.push_back(is_int ? static_cast<double>(c.IntAt(i)) : c.RealAt(i));
    rows.push_back(static_cast<uint32_t>(i));
  }
  const std::vector<double> swapped = Swap(xs, rng);
  relational::ColumnVector* mc = table->MutableColumn(col);
  if (is_int) {
    int64_t* vals = mc->mutable_ints();
    for (size_t j = 0; j < rows.size(); ++j) {
      vals[rows[j]] = static_cast<int64_t>(std::llround(swapped[j]));
    }
  } else {
    double* vals = mc->mutable_reals();
    for (size_t j = 0; j < rows.size(); ++j) vals[rows[j]] = swapped[j];
  }
  return Status::OK();
}

std::vector<double> Microaggregator::Aggregate(const std::vector<double>& xs) const {
  const size_t n = xs.size();
  if (n == 0 || k_ <= 1) return xs;
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&xs](size_t a, size_t b) { return xs[a] < xs[b]; });
  std::vector<double> out(n);
  size_t start = 0;
  while (start < n) {
    size_t end = start + k_;
    // Last group absorbs the remainder so no group is smaller than k.
    if (end > n || n - end < k_) end = n;
    double mean = 0.0;
    for (size_t r = start; r < end; ++r) mean += xs[order[r]];
    mean /= static_cast<double>(end - start);
    for (size_t r = start; r < end; ++r) out[order[r]] = mean;
    start = end;
  }
  return out;
}

double Microaggregator::SumOfSquaredErrors(const std::vector<double>& original,
                                           const std::vector<double>& released) {
  double sse = 0.0;
  for (size_t i = 0; i < original.size() && i < released.size(); ++i) {
    const double d = original[i] - released[i];
    sse += d * d;
  }
  return sse;
}

}  // namespace perturb
}  // namespace piye
