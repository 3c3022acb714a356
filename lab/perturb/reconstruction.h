#ifndef PIYE_PERTURB_RECONSTRUCTION_H_
#define PIYE_PERTURB_RECONSTRUCTION_H_

#include <vector>

#include "common/result.h"
#include "perturb/additive_noise.h"

namespace piye {
namespace perturb {

/// Agrawal–Srikant distribution reconstruction (SIGMOD 2000): given values
/// perturbed with a known additive-noise distribution, recover the
/// *distribution* of the originals by iterated Bayes over a histogram.
///
/// This is both the utility story of input perturbation (the miner gets the
/// distribution back) and, from the privacy side, a reminder that published
/// perturbed data still carries distributional information.
class DistributionReconstructor {
 public:
  /// Reconstructs over `bins` equi-width buckets spanning [lo, hi].
  DistributionReconstructor(double lo, double hi, size_t bins)
      : lo_(lo), hi_(hi), bins_(bins) {}

  /// Runs iterated Bayes until the L1 change drops below `tol` (or
  /// `max_iters`). Returns bucket probabilities summing to 1.
  Result<std::vector<double>> Reconstruct(const std::vector<double>& perturbed,
                                          const AdditiveNoise& noise,
                                          size_t max_iters = 500,
                                          double tol = 1e-6) const;

  /// Converts a sample to bucket probabilities over the same grid (ground
  /// truth / naive baseline).
  std::vector<double> Bucketize(const std::vector<double>& xs) const;

  /// L1 distance between two probability vectors.
  static double L1Distance(const std::vector<double>& a, const std::vector<double>& b);

  double bucket_center(size_t i) const {
    return lo_ + (static_cast<double>(i) + 0.5) * (hi_ - lo_) / static_cast<double>(bins_);
  }

 private:
  double lo_;
  double hi_;
  size_t bins_;
};

}  // namespace perturb
}  // namespace piye

#endif  // PIYE_PERTURB_RECONSTRUCTION_H_
