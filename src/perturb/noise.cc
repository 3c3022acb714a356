#include "perturb/noise.h"

#include <cmath>

namespace piye {
namespace perturb {

double OutputPerturbation::LaplaceNoise(double value, double scale, Rng* rng) {
  return value + rng->NextLaplace(scale);
}

double OutputPerturbation::Round(double value, double precision) {
  if (precision <= 0.0) return value;
  return std::round(value / precision) * precision;
}

}  // namespace perturb
}  // namespace piye
