#include "source/preservation.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "common/macros.h"
#include "common/strings.h"
#include "perturb/noise.h"

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

bool IsNumericColumn(const relational::Schema& schema, size_t i) {
  return schema.column(i).type == relational::ColumnType::kInt64 ||
         schema.column(i).type == relational::ColumnType::kDouble;
}

}  // namespace

Status PreservationModule::ApplyGeneralization(
    relational::Table* table,
    const std::map<std::string, policy::DisclosureForm>& column_forms) const {
  // Coarsen every kRange/kGeneralized column: numeric columns become
  // `generalization_buckets` equi-width ranges, strings become
  // `string_prefix`-character prefixes ("1974-02-06" → "197*"). The table's
  // schema changes coarsened numeric columns to STRING.
  relational::Schema new_schema;
  std::vector<bool> generalize(table->schema().num_columns(), false);
  std::vector<bool> string_generalize(table->schema().num_columns(), false);
  std::vector<double> lo(table->schema().num_columns(), 0.0);
  std::vector<double> width(table->schema().num_columns(), 0.0);
  for (size_t c = 0; c < table->schema().num_columns(); ++c) {
    const auto& col = table->schema().column(c);
    auto it = column_forms.find(col.name);
    const bool wants_coarsening = it != column_forms.end() &&
                                  (it->second == DisclosureForm::kRange ||
                                   it->second == DisclosureForm::kGeneralized);
    if (wants_coarsening && col.type == relational::ColumnType::kString) {
      string_generalize[c] = true;
      new_schema.AddColumn(col);
      continue;
    }
    const bool coarsen = wants_coarsening && IsNumericColumn(table->schema(), c);
    generalize[c] = coarsen;
    if (coarsen) {
      // Min/max scan over the contiguous typed buffer.
      const relational::ColumnVector& cv = table->col(c);
      const bool is_int = cv.type() == relational::ColumnType::kInt64;
      double mn = 0.0, mx = 0.0;
      bool first = true;
      for (size_t r = 0; r < table->num_rows(); ++r) {
        if (cv.IsNull(r)) continue;
        const double x =
            is_int ? static_cast<double>(cv.IntAt(r)) : cv.RealAt(r);
        if (first) {
          mn = mx = x;
          first = false;
        } else {
          mn = std::min(mn, x);
          mx = std::max(mx, x);
        }
      }
      lo[c] = mn;
      width[c] = (mx - mn) / static_cast<double>(config_.generalization_buckets);
      if (width[c] <= 0.0) width[c] = 1.0;
      new_schema.AddColumn({col.name, relational::ColumnType::kString});
    } else {
      new_schema.AddColumn(col);
    }
  }
  // Rebuild column-by-column: untouched columns copy their buffers whole,
  // coarsened ones are written as fresh STRING columns in one pass.
  relational::Table out;
  const size_t n = table->num_rows();
  for (size_t c = 0; c < table->schema().num_columns(); ++c) {
    const relational::ColumnVector& cv = table->col(c);
    if (string_generalize[c]) {
      relational::ColumnVector data(relational::ColumnType::kString);
      data.Reserve(n);
      for (size_t r = 0; r < n; ++r) {
        if (cv.IsNull(r)) {
          data.AppendNull();
          continue;
        }
        const std::string_view s = cv.StrAt(r);
        if (s.size() > config_.string_prefix) {
          std::string prefixed(s.substr(0, config_.string_prefix));
          prefixed += '*';
          data.AppendStr(prefixed);
        } else {
          data.AppendStr(s);
        }
      }
      out.AddColumn(new_schema.column(c), std::move(data));
    } else if (generalize[c]) {
      const bool is_int = cv.type() == relational::ColumnType::kInt64;
      relational::ColumnVector data(relational::ColumnType::kString);
      data.Reserve(n);
      for (size_t r = 0; r < n; ++r) {
        if (cv.IsNull(r)) {
          data.AppendNull();
          continue;
        }
        const double x =
            is_int ? static_cast<double>(cv.IntAt(r)) : cv.RealAt(r);
        double bucket = std::floor((x - lo[c]) / width[c]);
        bucket = std::clamp(
            bucket, 0.0,
            static_cast<double>(config_.generalization_buckets - 1));
        const double b_lo = lo[c] + bucket * width[c];
        data.AppendStr(strings::Format("[%g,%g)", b_lo, b_lo + width[c]));
      }
      out.AddColumn(new_schema.column(c), std::move(data));
    } else {
      out.AddColumn(new_schema.column(c), cv);
    }
  }
  *table = std::move(out);
  return Status::OK();
}

Status PreservationModule::ApplySuppression(
    relational::Table* table,
    const std::map<std::string, policy::DisclosureForm>& column_forms) const {
  // k-anonymity-style suppression over the *coarsened* columns (the
  // quasi-identifiers): rows whose generalized QI combination occurs fewer
  // than k times are dropped. Without any coarsened column there is no QI to
  // protect and suppression is a no-op.
  std::vector<size_t> qi;
  for (size_t c = 0; c < table->schema().num_columns(); ++c) {
    auto it = column_forms.find(table->schema().column(c).name);
    if (it != column_forms.end() && (it->second == DisclosureForm::kRange ||
                                     it->second == DisclosureForm::kGeneralized)) {
      qi.push_back(c);
    }
  }
  if (qi.empty()) return Status::OK();
  // A row's class key is its QI cells' tagged, length-prefixed encodings, so
  // two different QI combinations (NULL vs 'NULL', or a separator byte
  // inside a string) never share a class.
  const size_t n = table->num_rows();
  std::unordered_map<std::string, uint32_t> class_of;
  class_of.reserve(n);
  std::vector<uint32_t> row_class(n);
  std::vector<size_t> class_size;
  std::string key;
  for (size_t r = 0; r < n; ++r) {
    key.clear();
    for (size_t c : qi) table->col(c).EncodeCell(r, &key);
    auto [it, inserted] =
        class_of.try_emplace(key, static_cast<uint32_t>(class_size.size()));
    if (inserted) class_size.push_back(0);
    ++class_size[it->second];
    row_class[r] = it->second;
  }
  // Keep rows of sufficiently large equivalence classes via one gather.
  std::vector<uint32_t> sel;
  sel.reserve(n);
  for (size_t r = 0; r < n; ++r) {
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
      config_.min_aggregate_precision * std::pow(100.0, 1.0 - budget);
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
  const double scale = config_.laplace_scale_at_zero_budget * (1.0 - budget);
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
      case Technique::kKAnonymity:
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
