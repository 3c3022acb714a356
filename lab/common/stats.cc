#include "common/stats.h"

#include <cmath>

namespace piye {
namespace stats {

double Mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double Variance(const std::vector<double>& xs) {
  if (xs.size() < 1) return 0.0;
  const double m = Mean(xs);
  double acc = 0.0;
  for (double x : xs) acc += (x - m) * (x - m);
  return acc / static_cast<double>(xs.size());
}

double StdDev(const std::vector<double>& xs) { return std::sqrt(Variance(xs)); }

double Correlation(const std::vector<double>& xs, const std::vector<double>& ys) {
  if (xs.size() != ys.size() || xs.size() < 2) return 0.0;
  const double mx = Mean(xs), my = Mean(ys);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (size_t i = 0; i < xs.size(); ++i) {
    sxy += (xs[i] - mx) * (ys[i] - my);
    sxx += (xs[i] - mx) * (xs[i] - mx);
    syy += (ys[i] - my) * (ys[i] - my);
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

}  // namespace stats
}  // namespace piye
