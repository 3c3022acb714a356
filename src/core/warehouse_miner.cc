#include "core/warehouse_miner.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "common/macros.h"

namespace piye {
namespace core {

namespace {

/// Transactions: one sorted item vector per row, items = "column=value".
std::vector<std::vector<std::string>> Transactions(const relational::Table& table) {
  std::vector<size_t> cat_columns;
  for (size_t c = 0; c < table.schema().num_columns(); ++c) {
    const auto& col = table.schema().column(c);
    if (!col.name.empty() && col.name[0] == '_') continue;  // provenance etc.
    if (col.type == relational::ColumnType::kString ||
        col.type == relational::ColumnType::kBool) {
      cat_columns.push_back(c);
    }
  }
  std::vector<std::vector<std::string>> out;
  out.reserve(table.num_rows());
  for (size_t r = 0; r < table.num_rows(); ++r) {
    std::vector<std::string> txn;
    for (size_t c : cat_columns) {
      const relational::ColumnVector& cv = table.col(c);
      if (cv.IsNull(r)) continue;
      txn.push_back(table.schema().column(c).name + "=" +
                    cv.ValueAt(r).ToDisplayString());
    }
    std::sort(txn.begin(), txn.end());
    out.push_back(std::move(txn));
  }
  return out;
}

bool Contains(const std::vector<std::string>& txn,
              const std::vector<std::string>& itemset) {
  return std::includes(txn.begin(), txn.end(), itemset.begin(), itemset.end());
}

}  // namespace

Result<std::vector<WarehouseMiner::Itemset>> WarehouseMiner::FrequentItemsets(
    const relational::Table& table, double min_support, size_t max_size) {
  if (min_support <= 0.0 || min_support > 1.0) {
    return Status::InvalidArgument("min_support must be in (0, 1]");
  }
  const auto txns = Transactions(table);
  if (txns.empty()) return std::vector<Itemset>{};
  const double n = static_cast<double>(txns.size());
  const size_t min_count = static_cast<size_t>(std::ceil(min_support * n));

  // Level 1: frequent single items.
  std::map<std::string, size_t> counts;
  for (const auto& txn : txns) {
    for (const auto& item : txn) ++counts[item];
  }
  std::vector<std::vector<std::string>> frontier;
  std::vector<Itemset> result;
  for (const auto& [item, count] : counts) {
    if (count < min_count) continue;
    frontier.push_back({item});
    result.push_back({{item}, count, static_cast<double>(count) / n});
  }
  // Levels 2..max_size: join frontier sets sharing a (k-1)-prefix, then
  // count (classic Apriori candidate generation; the anti-monotone prune is
  // implicit in joining only frequent sets).
  for (size_t size = 2; size <= max_size && frontier.size() > 1; ++size) {
    std::set<std::vector<std::string>> candidates;
    for (size_t i = 0; i < frontier.size(); ++i) {
      for (size_t j = i + 1; j < frontier.size(); ++j) {
        const auto& a = frontier[i];
        const auto& b = frontier[j];
        if (!std::equal(a.begin(), a.end() - 1, b.begin())) continue;
        std::vector<std::string> merged = a;
        merged.push_back(b.back());
        std::sort(merged.begin(), merged.end());
        // Items from the same column cannot co-occur.
        bool same_column = false;
        for (size_t x = 0; x + 1 < merged.size(); ++x) {
          const auto col_x = merged[x].substr(0, merged[x].find('='));
          const auto col_y = merged[x + 1].substr(0, merged[x + 1].find('='));
          if (col_x == col_y) same_column = true;
        }
        if (!same_column) candidates.insert(std::move(merged));
      }
    }
    frontier.clear();
    for (const auto& candidate : candidates) {
      size_t count = 0;
      for (const auto& txn : txns) count += Contains(txn, candidate) ? 1 : 0;
      if (count < min_count) continue;
      frontier.push_back(candidate);
      result.push_back({candidate, count, static_cast<double>(count) / n});
    }
  }
  std::sort(result.begin(), result.end(), [](const Itemset& a, const Itemset& b) {
    if (a.support != b.support) return a.support > b.support;
    if (a.items.size() != b.items.size()) return a.items.size() < b.items.size();
    return a.items < b.items;
  });
  return result;
}

Result<std::vector<WarehouseMiner::Rule>> WarehouseMiner::AssociationRules(
    const relational::Table& table, double min_support, double min_confidence,
    size_t max_size) {
  PIYE_ASSIGN_OR_RETURN(std::vector<Itemset> frequent,
                        FrequentItemsets(table, min_support, max_size));
  std::map<std::vector<std::string>, double> support;
  for (const auto& is : frequent) support[is.items] = is.support;

  std::vector<Rule> rules;
  for (const auto& is : frequent) {
    if (is.items.size() < 2) continue;
    // One-item consequents (the standard restriction).
    for (size_t r = 0; r < is.items.size(); ++r) {
      std::vector<std::string> lhs;
      for (size_t i = 0; i < is.items.size(); ++i) {
        if (i != r) lhs.push_back(is.items[i]);
      }
      auto lhs_support = support.find(lhs);
      auto rhs_support = support.find({is.items[r]});
      if (lhs_support == support.end() || rhs_support == support.end()) continue;
      const double confidence = is.support / lhs_support->second;
      if (confidence < min_confidence) continue;
      Rule rule;
      rule.lhs = lhs;
      rule.rhs = is.items[r];
      rule.support = is.support;
      rule.confidence = confidence;
      rule.lift = confidence / rhs_support->second;
      rules.push_back(std::move(rule));
    }
  }
  std::sort(rules.begin(), rules.end(), [](const Rule& a, const Rule& b) {
    if (a.lift != b.lift) return a.lift > b.lift;
    return a.support > b.support;
  });
  return rules;
}

Result<std::map<std::string, double>> WarehouseMiner::TrendSlopes(
    const relational::Table& table, const std::string& group_column,
    const std::string& time_column, const std::string& value_column) {
  PIYE_ASSIGN_OR_RETURN(size_t group_idx, table.schema().IndexOf(group_column));
  PIYE_ASSIGN_OR_RETURN(size_t time_idx, table.schema().IndexOf(time_column));
  PIYE_ASSIGN_OR_RETURN(size_t value_idx, table.schema().IndexOf(value_column));
  const relational::ColumnVector& group = table.col(group_idx);
  const relational::ColumnVector& time = table.col(time_idx);
  const relational::ColumnVector& value = table.col(value_idx);
  auto is_numeric = [](const relational::ColumnVector& cv) {
    return cv.type() == relational::ColumnType::kInt64 ||
           cv.type() == relational::ColumnType::kDouble;
  };
  auto as_double = [](const relational::ColumnVector& cv, size_t r) {
    return cv.type() == relational::ColumnType::kInt64
               ? static_cast<double>(cv.IntAt(r))
               : cv.RealAt(r);
  };
  std::map<std::string, std::vector<std::pair<double, double>>> series;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    if (time.IsNull(r) || value.IsNull(r)) continue;
    if (!is_numeric(time) || !is_numeric(value)) {
      return Status::InvalidArgument("trend columns must be numeric");
    }
    series[group.ValueAt(r).ToDisplayString()].emplace_back(as_double(time, r),
                                                           as_double(value, r));
  }
  std::map<std::string, double> out;
  for (const auto& [group, points] : series) {
    if (points.size() < 2) {
      out[group] = 0.0;
      continue;
    }
    double sx = 0, sy = 0, sxx = 0, sxy = 0;
    for (const auto& [x, y] : points) {
      sx += x;
      sy += y;
      sxx += x * x;
      sxy += x * y;
    }
    const double n = static_cast<double>(points.size());
    const double denominator = n * sxx - sx * sx;
    out[group] = denominator == 0.0 ? 0.0 : (n * sxy - sx * sy) / denominator;
  }
  return out;
}

}  // namespace core
}  // namespace piye
