#include "reference/preserveref.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>

#include "common/strings.h"

namespace piye {
namespace source {
namespace preserveref {

namespace {

constexpr size_t kGeneralizationBuckets = 8;
constexpr size_t kStringPrefix = 3;

bool IsQuasiIdentifier(const Forms& forms, const std::string& column) {
  auto it = forms.find(column);
  return it != forms.end() && (it->second == policy::DisclosureForm::kRange ||
                               it->second == policy::DisclosureForm::kGeneralized);
}

bool IsNumeric(relational::ColumnType type) {
  return type == relational::ColumnType::kInt64 ||
         type == relational::ColumnType::kDouble;
}

}  // namespace

void Generalize(relational::Table* table, const Forms& forms) {
  const size_t cols = table->schema().num_columns();
  const size_t n = table->num_rows();
  relational::Table out;
  for (size_t c = 0; c < cols; ++c) {
    const relational::Column& meta = table->schema().column(c);
    const relational::ColumnVector& cv = table->col(c);
    const bool coarsen = IsQuasiIdentifier(forms, meta.name);
    if (coarsen && meta.type == relational::ColumnType::kString) {
      relational::ColumnVector data(relational::ColumnType::kString);
      for (size_t r = 0; r < n; ++r) {
        if (cv.IsNull(r)) {
          data.AppendNull();
          continue;
        }
        const std::string_view s = cv.StrAt(r);
        if (s.size() > kStringPrefix) {
          std::string prefixed(s.substr(0, kStringPrefix));
          prefixed += '*';
          data.AppendStr(prefixed);
        } else {
          data.AppendStr(s);
        }
      }
      out.AddColumn(meta, std::move(data));
    } else if (coarsen && IsNumeric(meta.type)) {
      const bool is_int = meta.type == relational::ColumnType::kInt64;
      double mn = 0.0, mx = 0.0;
      bool first = true;
      for (size_t r = 0; r < n; ++r) {
        if (cv.IsNull(r)) continue;
        const double x = is_int ? static_cast<double>(cv.IntAt(r)) : cv.RealAt(r);
        if (first) {
          mn = mx = x;
          first = false;
        } else {
          mn = std::min(mn, x);
          mx = std::max(mx, x);
        }
      }
      double width = (mx - mn) / static_cast<double>(kGeneralizationBuckets);
      if (width <= 0.0) width = 1.0;
      relational::ColumnVector data(relational::ColumnType::kString);
      for (size_t r = 0; r < n; ++r) {
        if (cv.IsNull(r)) {
          data.AppendNull();
          continue;
        }
        const double x = is_int ? static_cast<double>(cv.IntAt(r)) : cv.RealAt(r);
        double bucket = std::floor((x - mn) / width);
        bucket = std::clamp(bucket, 0.0,
                            static_cast<double>(kGeneralizationBuckets - 1));
        double b_lo = mn + bucket * width;
        double b_hi = b_lo + width;
        // The one departure from the old kernel: a NaN bound prints as "nan"
        // whatever its sign bit, which NaN arithmetic leaves to codegen.
        if (std::isnan(b_lo)) b_lo = std::numeric_limits<double>::quiet_NaN();
        if (std::isnan(b_hi)) b_hi = std::numeric_limits<double>::quiet_NaN();
        data.AppendStr(strings::Format("[%g,%g)", b_lo, b_hi));
      }
      out.AddColumn({meta.name, relational::ColumnType::kString}, std::move(data));
    } else {
      out.AddColumn(meta, cv);
    }
  }
  *table = std::move(out);
}

std::vector<uint32_t> ClassIds(const relational::Table& table, const Forms& forms) {
  std::vector<size_t> qi;
  for (size_t c = 0; c < table.schema().num_columns(); ++c) {
    if (IsQuasiIdentifier(forms, table.schema().column(c).name)) qi.push_back(c);
  }
  if (qi.empty()) return {};
  std::unordered_map<std::string, uint32_t> class_of;
  std::vector<uint32_t> row_class(table.num_rows());
  std::string key;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    key.clear();
    for (size_t c : qi) table.col(c).EncodeCell(r, &key);
    auto [it, inserted] =
        class_of.try_emplace(key, static_cast<uint32_t>(class_of.size()));
    row_class[r] = it->second;
  }
  return row_class;
}

void Suppress(relational::Table* table, const Forms& forms, size_t k) {
  const std::vector<uint32_t> row_class = ClassIds(*table, forms);
  if (row_class.empty()) return;  // no QI column (or no row): nothing to drop
  std::vector<size_t> class_size(
      *std::max_element(row_class.begin(), row_class.end()) + 1, 0);
  for (uint32_t c : row_class) ++class_size[c];
  std::vector<uint32_t> sel;
  for (size_t r = 0; r < row_class.size(); ++r) {
    if (class_size[row_class[r]] >= k) sel.push_back(static_cast<uint32_t>(r));
  }
  *table = table->Gather(sel);
}

Result<relational::Table> Apply(relational::Table table, const Forms& forms,
                                const std::vector<Technique>& techniques, size_t k) {
  for (Technique t : techniques) {
    switch (t) {
      case Technique::kGeneralization:
        Generalize(&table, forms);
        break;
      case Technique::kSuppression:
        Suppress(&table, forms, k);
        break;
      default:
        return Status::InvalidArgument("preserveref models only generalization "
                                       "and suppression");
    }
  }
  return table;
}

}  // namespace preserveref
}  // namespace source
}  // namespace piye
