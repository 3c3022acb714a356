#include "common/stats.h"

#include <algorithm>
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

double Percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  p = std::clamp(p, 0.0, 1.0);
  const double idx = p * static_cast<double>(xs.size() - 1);
  const size_t lo = static_cast<size_t>(idx);
  const size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

double EntropyBits(const std::vector<size_t>& counts) {
  size_t total = 0;
  for (size_t c : counts) total += c;
  if (total == 0) return 0.0;
  double h = 0.0;
  for (size_t c : counts) {
    if (c == 0) continue;
    const double p = static_cast<double>(c) / static_cast<double>(total);
    h -= p * std::log2(p);
  }
  return h;
}

std::vector<size_t> Histogram(const std::vector<double>& xs, double lo, double hi,
                              size_t bins) {
  std::vector<size_t> out(bins, 0);
  if (bins == 0 || hi <= lo) return out;
  const double width = (hi - lo) / static_cast<double>(bins);
  for (double x : xs) {
    long b = static_cast<long>((x - lo) / width);
    b = std::clamp<long>(b, 0, static_cast<long>(bins) - 1);
    ++out[static_cast<size_t>(b)];
  }
  return out;
}

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

double KlDivergenceBits(const std::vector<size_t>& p, const std::vector<size_t>& q) {
  if (p.size() != q.size() || p.empty()) return 0.0;
  const size_t n = p.size();
  double tp = 0.0, tq = 0.0;
  for (size_t i = 0; i < n; ++i) {
    tp += static_cast<double>(p[i]) + 1.0;
    tq += static_cast<double>(q[i]) + 1.0;
  }
  double d = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double pi = (static_cast<double>(p[i]) + 1.0) / tp;
    const double qi = (static_cast<double>(q[i]) + 1.0) / tq;
    d += pi * std::log2(pi / qi);
  }
  return d;
}

}  // namespace stats
}  // namespace piye
