#ifndef PIYE_PERTURB_NOISE_H_
#define PIYE_PERTURB_NOISE_H_

#include "common/rng.h"

namespace piye {
namespace perturb {

/// Output perturbation: distorts a *query answer* instead of the stored
/// data. `LaplaceNoise` adds Laplace(sensitivity/epsilon) noise — the
/// mechanism differential privacy later standardized; `Round` coarsens to a
/// fixed precision (the defense the fig1 benchmark sweeps: publishing
/// aggregates at coarser precision widens the attacker's inferred
/// intervals).
class OutputPerturbation {
 public:
  /// Laplace mechanism with the given scale b (noise ~ Lap(0, b)).
  static double LaplaceNoise(double value, double scale, Rng* rng);

  /// Rounds to the nearest multiple of `precision` (e.g. 0.1 → one decimal).
  static double Round(double value, double precision);
};

}  // namespace perturb
}  // namespace piye

#endif  // PIYE_PERTURB_NOISE_H_
