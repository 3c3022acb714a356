#include "source/loss_computation.h"

#include <algorithm>

namespace piye {
namespace source {

using policy::DisclosureForm;

double LossComputation::FormWeight(DisclosureForm form) {
  switch (form) {
    case DisclosureForm::kDenied:
      return 0.0;
    case DisclosureForm::kAggregate:
      return 0.1;
    case DisclosureForm::kRange:
      return 0.3;
    case DisclosureForm::kGeneralized:
      return 0.5;
    case DisclosureForm::kExact:
      return 0.8;
  }
  return 0.0;
}

double LossComputation::UtilityWeight(DisclosureForm form) {
  switch (form) {
    case DisclosureForm::kDenied:
      return 0.0;
    case DisclosureForm::kAggregate:
      return 0.4;
    case DisclosureForm::kRange:
      return 0.6;
    case DisclosureForm::kGeneralized:
      return 0.7;
    case DisclosureForm::kExact:
      return 1.0;
  }
  return 0.0;
}

LossEstimate LossComputation::Estimate(
    const std::map<std::string, DisclosureForm>& column_forms,
    size_t denied_columns) {
  LossEstimate out;
  double info_degradation = 0.0;
  for (const auto& [_, form] : column_forms) {
    out.privacy_loss = std::max(out.privacy_loss, FormWeight(form));
    info_degradation += 1.0 - UtilityWeight(form);
  }
  const double total_cols =
      static_cast<double>(column_forms.size() + denied_columns);
  if (total_cols > 0.0) {
    // Denied columns deliver zero information (full unit of degradation).
    out.information_loss =
        (info_degradation + static_cast<double>(denied_columns)) / total_cols;
  }
  return out;
}

}  // namespace source
}  // namespace piye
