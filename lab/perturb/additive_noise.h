#ifndef PIYE_PERTURB_ADDITIVE_NOISE_H_
#define PIYE_PERTURB_ADDITIVE_NOISE_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "relational/table.h"

namespace piye {
namespace perturb {

/// Input perturbation in the Agrawal–Srikant style: each value of a numeric
/// column is released as x + r where r is drawn from a known noise
/// distribution. Individual values are distorted; the *distribution* remains
/// recoverable (lab/perturb/reconstruction.h recovers it).
class AdditiveNoise {
 public:
  enum class Distribution { kGaussian, kUniform };

  /// For kGaussian, `scale` is the standard deviation; for kUniform, noise
  /// is drawn from [-scale, scale].
  AdditiveNoise(Distribution dist, double scale) : dist_(dist), scale_(scale) {}

  Distribution distribution() const { return dist_; }
  double scale() const { return scale_; }

  /// Perturbs a vector of values.
  std::vector<double> Perturb(const std::vector<double>& xs, Rng* rng) const;

  /// Perturbs a numeric column of a table in place.
  Status PerturbColumn(relational::Table* table, const std::string& column,
                       Rng* rng) const;

  /// Density of the noise distribution at `r` (needed by reconstruction).
  double NoiseDensity(double r) const;

 private:
  Distribution dist_;
  double scale_;
};

}  // namespace perturb
}  // namespace piye

#endif  // PIYE_PERTURB_ADDITIVE_NOISE_H_
