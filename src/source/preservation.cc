#include "source/preservation.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "common/macros.h"
#include "common/strings.h"
#include "perturb/noise.h"
#include "relational/dedup.h"

namespace piye {
namespace source {

using policy::DisclosureForm;

const char* BreachClassToString(BreachClass breach) {
  switch (breach) {
    case BreachClass::kNone:
      return "none";
    case BreachClass::kIdentityDisclosure:
      return "identity-disclosure";
    case BreachClass::kAttributeDisclosure:
      return "attribute-disclosure";
    case BreachClass::kAggregateInference:
      return "aggregate-inference";
    case BreachClass::kLinkageAttack:
      return "linkage-attack";
  }
  return "?";
}

namespace {

// The fixed strengths of the coarsening and distortion techniques.
constexpr size_t kGeneralizationBuckets = 8;  ///< ranges per numeric column
constexpr size_t kStringPrefix = 3;  ///< kept prefix when generalizing strings
constexpr double kMinAggregatePrecision = 0.1;  ///< rounding step at full budget
constexpr double kLaplaceScaleAtZeroBudget = 5.0;  ///< noise scale as budget → 0

bool IsNumericColumn(const relational::Schema& schema, size_t i) {
  return schema.column(i).type == relational::ColumnType::kInt64 ||
         schema.column(i).type == relational::ColumnType::kDouble;
}

/// A quasi-identifier is a column released coarsened: generalization
/// coarsens it and suppression groups rows by it.
bool IsQuasiIdentifier(const std::map<std::string, DisclosureForm>& forms,
                       const std::string& column) {
  auto it = forms.find(column);
  return it != forms.end() && (it->second == DisclosureForm::kRange ||
                               it->second == DisclosureForm::kGeneralized);
}

/// The "[lo,hi)" label of bucket `bucket` of width `width` starting at
/// `lo`. A NaN bound prints as "nan": arithmetic on NaNs leaves the sign
/// bit to the compiler's operand order, so it is not part of the label.
std::string BucketLabel(double lo, double bucket, double width) {
  const double b_lo = lo + bucket * width;
  const double b_hi = b_lo + width;
  auto bound = [](double b) {
    return std::isnan(b) ? std::numeric_limits<double>::quiet_NaN() : b;
  };
  return strings::Format("[%g,%g)", bound(b_lo), bound(b_hi));
}

/// Replaces each number by the "[lo,hi)" label of its bucket among
/// kGeneralizationBuckets equi-width ranges over the column's min..max.
relational::ColumnVector GeneralizeNumbers(const relational::ColumnVector& cv) {
  const size_t n = cv.size();
  const bool is_int = cv.type() == relational::ColumnType::kInt64;
  auto at = [&](size_t r) {
    return is_int ? static_cast<double>(cv.IntAt(r)) : cv.RealAt(r);
  };
  double mn = 0.0, mx = 0.0;
  bool first = true;
  for (size_t r = 0; r < n; ++r) {
    if (cv.IsNull(r)) continue;
    const double x = at(r);
    if (first) {
      mn = mx = x;
      first = false;
    } else {
      mn = std::min(mn, x);
      mx = std::max(mx, x);
    }
  }
  const double lo = mn;
  double width = (mx - mn) / static_cast<double>(kGeneralizationBuckets);
  if (width <= 0.0) width = 1.0;
  // Each label is formatted once, on first use; the last slot is the label
  // of a NaN bucket (a NaN cell, or a NaN bound).
  std::array<std::string, kGeneralizationBuckets + 1> labels;
  relational::ColumnVector out(relational::ColumnType::kString);
  out.Reserve(n);
  for (size_t r = 0; r < n; ++r) {
    if (cv.IsNull(r)) {
      out.AppendNull();
      continue;
    }
    const double bucket =
        std::clamp(std::floor((at(r) - lo) / width), 0.0,
                   static_cast<double>(kGeneralizationBuckets - 1));
    std::string& label =
        labels[std::isnan(bucket) ? kGeneralizationBuckets : static_cast<size_t>(bucket)];
    if (label.empty()) label = BucketLabel(lo, bucket, width);
    out.AppendStr(label);
  }
  return out;
}

}  // namespace

Status PreservationModule::ApplyGeneralization(
    relational::Table* table,
    const std::map<std::string, policy::DisclosureForm>& column_forms) const {
  // Coarsen every quasi-identifier in place; a numeric one becomes a STRING
  // column of range labels. Every other column keeps its buffers.
  for (size_t c = 0; c < table->num_columns(); ++c) {
    if (!IsQuasiIdentifier(column_forms, table->schema().column(c).name)) continue;
    if (table->col(c).type() == relational::ColumnType::kString) {
      // "1974-02-06" -> "197*"
      table->ReplaceColumn(c, table->col(c).Prefixes(kStringPrefix, '*'));
    } else if (IsNumericColumn(table->schema(), c)) {
      table->ReplaceColumn(c, GeneralizeNumbers(table->col(c)));
    }
  }
  return Status::OK();
}

Status PreservationModule::ApplySuppression(
    relational::Table* table,
    const std::map<std::string, policy::DisclosureForm>& column_forms) const {
  // k-anonymity-style suppression over the quasi-identifiers: rows whose QI
  // combination occurs fewer than k times are dropped. Without any QI there
  // is nothing to protect and suppression is a no-op.
  relational::KeyBlock qi{{}, table->num_rows()};
  for (size_t c = 0; c < table->num_columns(); ++c) {
    if (IsQuasiIdentifier(column_forms, table->schema().column(c).name)) {
      qi.cols.push_back(&table->col(c));
    }
  }
  if (qi.cols.empty()) return Status::OK();
  // Classes follow Value::Compare's equality (NULL only with NULL, numerics
  // by AsDouble with -0.0 folded into 0.0, strings by bytes).
  std::vector<uint32_t> row_class;
  const size_t classes =
      relational::KeyClasses({qi}, relational::KeyEquality::kCompare, &row_class)
          .size();
  std::vector<size_t> class_size(classes, 0);
  for (uint32_t c : row_class) ++class_size[c];
  if (std::all_of(class_size.begin(), class_size.end(),
                  [this](size_t size) { return size >= config_.k; })) {
    return Status::OK();  // no class under k: the table is released as is
  }
  std::vector<uint32_t> sel;
  sel.reserve(row_class.size());
  for (size_t r = 0; r < row_class.size(); ++r) {
    if (class_size[row_class[r]] >= config_.k) sel.push_back(static_cast<uint32_t>(r));
  }
  *table = table->Gather(sel);
  return Status::OK();
}

Status PreservationModule::ApplyRounding(
    relational::Table* table,
    const std::map<std::string, policy::DisclosureForm>& forms,
    double loss_budget) const {
  // Precision grows as the budget shrinks: budget 1 → min precision,
  // budget 0 → precision 10.
  const double budget = std::clamp(loss_budget, 0.0, 1.0);
  const double precision =
      kMinAggregatePrecision * std::pow(100.0, 1.0 - budget);
  for (size_t c = 0; c < table->schema().num_columns(); ++c) {
    auto it = forms.find(table->schema().column(c).name);
    if (it == forms.end() || it->second != DisclosureForm::kAggregate) continue;
    if (!IsNumericColumn(table->schema(), c)) continue;
    relational::ColumnVector* mc = table->MutableColumn(c);
    const size_t n = table->num_rows();
    if (mc->type() == relational::ColumnType::kInt64) {
      int64_t* vals = mc->mutable_ints();
      for (size_t r = 0; r < n; ++r) {
        if (mc->IsNull(r)) continue;
        vals[r] = static_cast<int64_t>(std::llround(
            perturb::OutputPerturbation::Round(static_cast<double>(vals[r]),
                                               precision)));
      }
    } else {
      double* vals = mc->mutable_reals();
      for (size_t r = 0; r < n; ++r) {
        if (mc->IsNull(r)) continue;
        vals[r] = perturb::OutputPerturbation::Round(vals[r], precision);
      }
    }
  }
  return Status::OK();
}

Status PreservationModule::ApplyNoise(
    relational::Table* table,
    const std::map<std::string, policy::DisclosureForm>& forms, double loss_budget,
    Rng* rng) const {
  const double budget = std::clamp(loss_budget, 0.0, 1.0);
  const double scale = kLaplaceScaleAtZeroBudget * (1.0 - budget);
  if (scale <= 0.0) return Status::OK();
  for (size_t c = 0; c < table->schema().num_columns(); ++c) {
    auto it = forms.find(table->schema().column(c).name);
    if (it == forms.end() || it->second != DisclosureForm::kAggregate) continue;
    if (!IsNumericColumn(table->schema(), c)) continue;
    relational::ColumnVector* mc = table->MutableColumn(c);
    const size_t n = table->num_rows();
    if (mc->type() == relational::ColumnType::kInt64) {
      int64_t* vals = mc->mutable_ints();
      for (size_t r = 0; r < n; ++r) {
        if (mc->IsNull(r)) continue;
        vals[r] = static_cast<int64_t>(
            std::llround(perturb::OutputPerturbation::LaplaceNoise(
                static_cast<double>(vals[r]), scale, rng)));
      }
    } else {
      double* vals = mc->mutable_reals();
      for (size_t r = 0; r < n; ++r) {
        if (mc->IsNull(r)) continue;
        vals[r] =
            perturb::OutputPerturbation::LaplaceNoise(vals[r], scale, rng);
      }
    }
  }
  return Status::OK();
}

std::vector<Technique> PreservationModule::DefaultTechniques(
    const std::map<std::string, policy::DisclosureForm>& column_forms,
    double loss_budget) const {
  std::vector<Technique> out;
  bool any_coarsen = false, any_aggregate = false, any_row_level = false;
  for (const auto& [_, form] : column_forms) {
    if (form == DisclosureForm::kRange || form == DisclosureForm::kGeneralized) {
      any_coarsen = true;
    }
    if (form == DisclosureForm::kAggregate) any_aggregate = true;
    if (form == DisclosureForm::kExact) any_row_level = true;
  }
  if (any_coarsen) {
    out.push_back(Technique::kGeneralization);
    out.push_back(Technique::kSuppression);
  }
  if (any_aggregate && loss_budget < 1.0) out.push_back(Technique::kRounding);
  if (any_aggregate && loss_budget < 0.25) out.push_back(Technique::kNoiseAddition);
  if (out.empty() && any_row_level) out.push_back(Technique::kNone);
  return out;
}

Result<relational::Table> PreservationModule::Apply(
    relational::Table result,
    const std::map<std::string, policy::DisclosureForm>& column_forms,
    double loss_budget, const std::vector<Technique>& techniques, Rng* rng) const {
  for (Technique t : techniques) {
    switch (t) {
      case Technique::kNone:
      case Technique::kQuerySetRestriction:  // enforced pre-execution
        break;
      case Technique::kGeneralization:
        PIYE_RETURN_NOT_OK(ApplyGeneralization(&result, column_forms));
        break;
      case Technique::kSuppression:
        PIYE_RETURN_NOT_OK(ApplySuppression(&result, column_forms));
        break;
      case Technique::kRounding:
        PIYE_RETURN_NOT_OK(ApplyRounding(&result, column_forms, loss_budget));
        break;
      case Technique::kNoiseAddition:
        PIYE_RETURN_NOT_OK(ApplyNoise(&result, column_forms, loss_budget, rng));
        break;
    }
  }
  return result;
}

}  // namespace source
}  // namespace piye
