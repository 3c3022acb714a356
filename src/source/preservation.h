#ifndef PIYE_SOURCE_PRESERVATION_H_
#define PIYE_SOURCE_PRESERVATION_H_

#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "policy/policy.h"
#include "relational/table.h"

namespace piye {
namespace source {

/// Classes of privacy breach the Privacy Preservation module knows how to
/// counter (Section 4's "inferring possible types of privacy breaches for
/// different classes of queries").
enum class BreachClass {
  kNone = 0,
  kIdentityDisclosure,   ///< individual rows identify people
  kAttributeDisclosure,  ///< sensitive values attach to identified rows
  kAggregateInference,   ///< published aggregates narrow sensitive values (Fig. 1)
  kLinkageAttack,        ///< results joinable with external data
};

const char* BreachClassToString(BreachClass breach);

/// Concrete countermeasures the module can apply to query results.
enum class Technique {
  kNone = 0,
  kSuppression,      ///< drop undersized groups
  kGeneralization,   ///< coarsen values to ranges
  kNoiseAddition,    ///< Laplace noise on aggregates
  kRounding,         ///< publish aggregates at coarser precision
  kQuerySetRestriction,  ///< refuse small query sets
};

/// The Privacy Preservation module of Figure 2(a): applies the selected
/// techniques to a query result so that the released table honours each
/// column's disclosure form and the policy's loss budget.
class PreservationModule {
 public:
  struct Config {
    size_t k = 3;  ///< smallest equivalence class suppression keeps
    /// Answer global aggregates via Denning random-sample queries instead of
    /// the exact query set (statdb::RandomSampleQueries): deterministic per
    /// (record, formula), so re-asking gains nothing, but rephrased trackers
    /// lose exact control of the query set. Off by default.
    bool use_random_sample_queries = false;
    double sampling_rate = 0.85;  ///< inclusion probability when enabled
  };

  explicit PreservationModule(Config config) : config_(config) {}
  PreservationModule() : PreservationModule(Config()) {}

  /// Applies `techniques` to `result`. `column_forms` drives which columns
  /// are coarsened; `loss_budget` in [0,1] scales rounding/noise strength
  /// (smaller budget ⇒ stronger distortion). Aggregate (DOUBLE) columns are
  /// the targets of rounding/noise; generalization applies to kRange /
  /// kGeneralized columns.
  Result<relational::Table> Apply(
      relational::Table result,
      const std::map<std::string, policy::DisclosureForm>& column_forms,
      double loss_budget, const std::vector<Technique>& techniques, Rng* rng) const;

  /// Default technique selection from the column forms alone (used when the
  /// cluster matcher has no opinion): generalization if any range/
  /// generalized column, rounding if any aggregate under budget < 1.
  std::vector<Technique> DefaultTechniques(
      const std::map<std::string, policy::DisclosureForm>& column_forms,
      double loss_budget) const;

  const Config& config() const { return config_; }

 private:
  Status ApplyGeneralization(
      relational::Table* table,
      const std::map<std::string, policy::DisclosureForm>& column_forms) const;
  Status ApplySuppression(
      relational::Table* table,
      const std::map<std::string, policy::DisclosureForm>& column_forms) const;
  Status ApplyRounding(relational::Table* table,
                       const std::map<std::string, policy::DisclosureForm>& forms,
                       double loss_budget) const;
  Status ApplyNoise(relational::Table* table,
                    const std::map<std::string, policy::DisclosureForm>& forms,
                    double loss_budget, Rng* rng) const;

  Config config_;
};

}  // namespace source
}  // namespace piye

#endif  // PIYE_SOURCE_PRESERVATION_H_
