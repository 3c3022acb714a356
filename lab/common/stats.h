#ifndef PIYE_COMMON_STATS_H_
#define PIYE_COMMON_STATS_H_

#include <cstddef>
#include <vector>

namespace piye {

/// Small numeric helpers for checking the distributions that the
/// perturbation techniques produce.
namespace stats {

/// Arithmetic mean; 0 for an empty input.
double Mean(const std::vector<double>& xs);

/// Population variance (divides by N); 0 for inputs with < 1 element.
double Variance(const std::vector<double>& xs);

/// Population standard deviation.
double StdDev(const std::vector<double>& xs);

/// Pearson correlation of two equal-length series; 0 if degenerate.
double Correlation(const std::vector<double>& xs, const std::vector<double>& ys);

}  // namespace stats
}  // namespace piye

#endif  // PIYE_COMMON_STATS_H_
