#ifndef PIYE_CORE_OUTBREAK_H_
#define PIYE_CORE_OUTBREAK_H_

#include <string>
#include <vector>

#include "relational/table.h"

namespace piye {
namespace core {

/// Synthetic data for the paper's second motivating scenario. The original
/// international SARS case data is not redistributable, so this generator
/// produces a deterministic stand-in with an outbreak's case-count ramp (see
/// DESIGN.md, "Substitutions").
/// Example 2: disease-outbreak surveillance over per-country case streams.
class OutbreakScenario {
 public:
  /// Per-country daily case counts: baseline Poisson noise plus an
  /// exponential ramp starting at `outbreak_day` in `outbreak_country`.
  /// Columns: day INT64, region STRING, cases INT64.
  static std::vector<relational::Table> MakeCaseTables(
      const std::vector<std::string>& countries, size_t days, size_t outbreak_day,
      size_t outbreak_country, uint64_t seed);

  /// Simple surveillance detector: first day the `window`-day moving sum
  /// exceeds `threshold_factor` times the trailing baseline. Returns the
  /// detection day or -1.
  static long DetectOutbreak(const std::vector<double>& daily_cases, size_t window,
                             double threshold_factor);
};

}  // namespace core
}  // namespace piye

#endif  // PIYE_CORE_OUTBREAK_H_
