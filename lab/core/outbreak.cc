#include "core/outbreak.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"

namespace piye {
namespace core {

using relational::Column;
using relational::ColumnType;
using relational::Row;
using relational::Table;
using relational::Value;

std::vector<Table> OutbreakScenario::MakeCaseTables(
    const std::vector<std::string>& countries, size_t days, size_t outbreak_day,
    size_t outbreak_country, uint64_t seed) {
  Rng rng(seed);
  std::vector<Table> out;
  for (size_t c = 0; c < countries.size(); ++c) {
    Table table(relational::Schema{Column{"day", ColumnType::kInt64},
                                   Column{"region", ColumnType::kString},
                                   Column{"cases", ColumnType::kInt64}});
    for (size_t d = 0; d < days; ++d) {
      double rate = 4.0;  // endemic baseline
      if (c == outbreak_country && d >= outbreak_day) {
        rate += 2.0 * std::pow(1.35, static_cast<double>(d - outbreak_day));
      }
      const int cases = rng.NextPoisson(std::min(rate, 400.0));
      table.AppendRowUnchecked(Row{Value::Int(static_cast<int64_t>(d)),
                                   Value::Str(countries[c]),
                                   Value::Int(cases)});
    }
    out.push_back(std::move(table));
  }
  return out;
}

long OutbreakScenario::DetectOutbreak(const std::vector<double>& daily_cases,
                                      size_t window, double threshold_factor) {
  if (daily_cases.size() < 2 * window) return -1;
  for (size_t d = 2 * window; d < daily_cases.size(); ++d) {
    double recent = 0.0, baseline = 0.0;
    for (size_t i = 0; i < window; ++i) {
      recent += daily_cases[d - i];
      baseline += daily_cases[d - window - i];
    }
    if (baseline < 1.0) baseline = 1.0;
    if (recent >= threshold_factor * baseline) return static_cast<long>(d);
  }
  return -1;
}

}  // namespace core
}  // namespace piye
