#ifndef PIYE_SOURCE_LOSS_COMPUTATION_H_
#define PIYE_SOURCE_LOSS_COMPUTATION_H_

#include <map>
#include <string>

#include "policy/policy.h"
#include "source/piql.h"

namespace piye {
namespace source {

/// The Privacy Loss Computation module of Figure 2(a): before execution, it
/// quantifies the expected privacy loss of releasing a query's results in
/// the rewritten disclosure forms, and the dual information loss the
/// requester suffers from coarsening/denial. Both are in [0,1].
struct LossEstimate {
  /// Max per-column disclosure weight: how much an adversary can learn about
  /// an individual data item from this release (1 = exact values flow out).
  double privacy_loss = 0.0;
  /// How degraded the requester's answer is relative to exact values
  /// (0 = full fidelity; 1 = nothing usable).
  double information_loss = 0.0;
};

class LossComputation {
 public:
  /// Privacy weight per form (the probabilistic "conditional loss"
  /// heuristic: exact values reveal the most, aggregates over n >= k records
  /// very little). Capped below 1 so the mediator's multiplicative loss
  /// combination stays informative — certainty-of-disclosure is reserved for
  /// provable compromises found by the inference auditor.
  static double FormWeight(policy::DisclosureForm form);

  /// Requester-side utility per form (exact = full fidelity). The
  /// complement 1 - utility is the per-column information degradation.
  static double UtilityWeight(policy::DisclosureForm form);

  /// Estimates losses from the per-column forms the rewriter granted and the
  /// columns it denied.
  static LossEstimate Estimate(
      const std::map<std::string, policy::DisclosureForm>& column_forms,
      size_t denied_columns);
};

}  // namespace source
}  // namespace piye

#endif  // PIYE_SOURCE_LOSS_COMPUTATION_H_
