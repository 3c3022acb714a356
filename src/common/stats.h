#ifndef PIYE_COMMON_STATS_H_
#define PIYE_COMMON_STATS_H_

#include <cstddef>
#include <map>
#include <vector>

namespace piye {

/// Small numeric/statistics helpers shared by the perturbation, anonymity,
/// and inference modules.
namespace stats {

/// Arithmetic mean; 0 for an empty input.
double Mean(const std::vector<double>& xs);

/// Population variance (divides by N); 0 for inputs with < 1 element.
double Variance(const std::vector<double>& xs);

/// Population standard deviation.
double StdDev(const std::vector<double>& xs);

/// p-th percentile (p in [0,1]) using linear interpolation; input need not be
/// sorted. Returns 0 for empty input.
double Percentile(std::vector<double> xs, double p);

/// Shannon entropy (bits) of a discrete distribution given by counts.
double EntropyBits(const std::vector<size_t>& counts);

/// Builds an equi-width histogram of `xs` over [lo, hi] with `bins` buckets.
/// Values outside the range are clamped into the first/last bucket.
std::vector<size_t> Histogram(const std::vector<double>& xs, double lo, double hi,
                              size_t bins);

/// Pearson correlation of two equal-length series; 0 if degenerate.
double Correlation(const std::vector<double>& xs, const std::vector<double>& ys);

/// Kullback–Leibler divergence D(p||q) in bits over histogram counts, with
/// add-one smoothing so it is always finite.
double KlDivergenceBits(const std::vector<size_t>& p, const std::vector<size_t>& q);

}  // namespace stats
}  // namespace piye

#endif  // PIYE_COMMON_STATS_H_
