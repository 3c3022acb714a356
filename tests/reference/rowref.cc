#include "reference/rowref.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <set>

#include "common/macros.h"
#include "relational/agg.h"

namespace piye {
namespace relational {
namespace rowref {

Row RowAt(const Table& t, size_t i) {
  Row out;
  out.reserve(t.num_columns());
  for (size_t c = 0; c < t.num_columns(); ++c) out.push_back(t.Cell(i, c));
  return out;
}

namespace {

/// Every row of `t`, materialized: the oracle is row-at-a-time by design.
std::vector<Row> AllRows(const Table& t) {
  std::vector<Row> out;
  out.reserve(t.num_rows());
  for (size_t i = 0; i < t.num_rows(); ++i) out.push_back(RowAt(t, i));
  return out;
}

}  // namespace

Result<Table> Filter(const Table& input, const ExprPtr& predicate) {
  Table out(input.schema());
  if (predicate == nullptr) {
    for (const Row& r : AllRows(input)) out.AppendRowUnchecked(r);
    return out;
  }
  for (size_t i = 0; i < input.num_rows(); ++i) {
    const Row r = RowAt(input, i);
    PIYE_ASSIGN_OR_RETURN(bool keep, predicate->EvaluatesTrue(r, input.schema()));
    if (keep) out.AppendRowUnchecked(r);
  }
  return out;
}

Result<Table> Project(const Table& input,
                      const std::vector<std::string>& columns) {
  PIYE_ASSIGN_OR_RETURN(Schema schema, input.schema().Project(columns));
  std::vector<size_t> idx;
  for (const auto& c : columns) {
    PIYE_ASSIGN_OR_RETURN(size_t i, input.schema().IndexOf(c));
    idx.push_back(i);
  }
  Table out(std::move(schema));
  for (const Row& r : AllRows(input)) {
    Row row;
    row.reserve(idx.size());
    for (size_t i : idx) row.push_back(r[i]);
    out.AppendRowUnchecked(row);
  }
  return out;
}

namespace {

/// Accumulator for one aggregate over one group: the shared NumericAgg math
/// plus Compare-ordered extrema, exactly the seed engine's shape.
struct AggState {
  NumericAgg num;
  Value min;
  Value max;

  void Add(const Value& v) {
    if (v.is_null()) return;
    if (v.is_int()) {
      num.AddInt(v.AsInt());
    } else if (v.is_double()) {
      num.AddReal(v.AsDouble());
    } else {
      num.AddNonNumeric();
    }
    if (min.is_null() || v.Compare(min) < 0) min = v;
    if (max.is_null() || v.Compare(max) > 0) max = v;
  }

  Value Finish(AggFunc func, bool int_input) const {
    if (func == AggFunc::kMin) return min;
    if (func == AggFunc::kMax) return max;
    return num.Finish(func, int_input);
  }
};

}  // namespace

Result<Table> Aggregate(const Table& input,
                        const std::vector<std::string>& group_by,
                        const std::vector<SelectItem>& aggregates) {
  std::vector<size_t> group_idx;
  for (const auto& g : group_by) {
    PIYE_ASSIGN_OR_RETURN(size_t i, input.schema().IndexOf(g));
    group_idx.push_back(i);
  }
  struct AggSpec {
    AggFunc func;
    long col = -1;  // -1 means COUNT(*)
    std::string out_name;
    ColumnType out_type = ColumnType::kDouble;
    bool int_input = false;
  };
  std::vector<AggSpec> specs;
  for (const auto& item : aggregates) {
    if (item.kind != SelectItem::Kind::kAggregate) {
      return Status::InvalidArgument("Aggregate() requires aggregate select items");
    }
    AggSpec spec;
    spec.func = item.func;
    spec.out_name = item.OutputName();
    if (item.column.empty()) {
      if (item.func != AggFunc::kCount) {
        return Status::InvalidArgument("only COUNT can omit its column");
      }
      spec.out_type = ColumnType::kInt64;
    } else {
      PIYE_ASSIGN_OR_RETURN(size_t i, input.schema().IndexOf(item.column));
      spec.col = static_cast<long>(i);
      spec.out_type = AggResultType(item.func, input.schema().column(i).type);
      spec.int_input = input.schema().column(i).type == ColumnType::kInt64;
    }
    specs.push_back(std::move(spec));
  }

  // Group rows. Keys compare by Value::Compare (exact semantics incl. NULL).
  std::map<std::vector<Value>, std::vector<AggState>> groups;
  std::vector<std::vector<Value>> group_order;
  for (const Row& r : AllRows(input)) {
    std::vector<Value> key;
    key.reserve(group_idx.size());
    for (size_t i : group_idx) key.push_back(r[i]);
    auto it = groups.find(key);
    if (it == groups.end()) {
      it = groups.emplace(key, std::vector<AggState>(specs.size())).first;
      group_order.push_back(key);
    }
    for (size_t s = 0; s < specs.size(); ++s) {
      if (specs[s].col < 0) {
        ++it->second[s].num.count;  // COUNT(*)
      } else {
        it->second[s].Add(r[static_cast<size_t>(specs[s].col)]);
      }
    }
  }
  // Global aggregation over an empty input still yields one row.
  if (group_idx.empty() && groups.empty()) {
    groups.emplace(std::vector<Value>{}, std::vector<AggState>(specs.size()));
    group_order.push_back({});
  }
  // An INT64 SUM column widens to DOUBLE only if a group's exact
  // accumulator overflowed (same rule as the vectorized engine).
  for (auto& spec : specs) {
    if (spec.func != AggFunc::kSum || !spec.int_input) continue;
    for (const auto& key : group_order) {
      const AggState& st = groups[key][&spec - specs.data()];
      if (st.num.count > 0 && st.num.ioverflow) {
        spec.out_type = ColumnType::kDouble;
        break;
      }
    }
  }
  Schema out_schema;
  for (size_t i : group_idx) out_schema.AddColumn(input.schema().column(i));
  for (const auto& s : specs) out_schema.AddColumn({s.out_name, s.out_type});
  Table out(out_schema);
  for (const auto& key : group_order) {
    const auto& states = groups[key];
    Row row = key;
    for (size_t s = 0; s < specs.size(); ++s) {
      row.push_back(states[s].Finish(specs[s].func, specs[s].int_input));
    }
    out.AppendRowUnchecked(row);
  }
  return out;
}

Result<Table> Union(const Table& a, const Table& b) {
  if (!(a.schema() == b.schema())) {
    return Status::InvalidArgument("UNION requires identical schemas: [" +
                                   a.schema().ToString() + "] vs [" +
                                   b.schema().ToString() + "]");
  }
  Table out(a.schema());
  for (const Row& r : AllRows(a)) out.AppendRowUnchecked(r);
  for (const Row& r : AllRows(b)) out.AppendRowUnchecked(r);
  return out;
}

Table Distinct(const Table& input) {
  Table out(input.schema());
  std::set<std::vector<Value>> seen;
  for (const Row& r : AllRows(input)) {
    if (seen.insert(r).second) out.AppendRowUnchecked(r);
  }
  return out;
}

Result<Table> Sort(const Table& input, const std::vector<OrderKey>& keys) {
  std::vector<std::pair<size_t, bool>> idx;
  for (const auto& k : keys) {
    PIYE_ASSIGN_OR_RETURN(size_t i, input.schema().IndexOf(k.column));
    idx.emplace_back(i, k.ascending);
  }
  std::vector<Row> rows = AllRows(input);
  std::stable_sort(rows.begin(), rows.end(),
                   [&idx](const Row& a, const Row& b) {
                     for (const auto& [i, asc] : idx) {
                       const int c = a[i].Compare(b[i]);
                       if (c != 0) return asc ? c < 0 : c > 0;
                     }
                     return false;
                   });
  Table out(input.schema());
  for (const Row& r : rows) out.AppendRowUnchecked(r);
  return out;
}

Table Limit(const Table& input, size_t n) {
  Table out(input.schema());
  for (size_t i = 0; i < std::min(n, input.num_rows()); ++i) {
    out.AppendRowUnchecked(RowAt(input, i));
  }
  return out;
}

Status AddNoiseRowAtATime(Table* table, const std::string& column,
                          bool gaussian, double scale, Rng* rng) {
  PIYE_ASSIGN_OR_RETURN(size_t col, table->schema().IndexOf(column));
  const ColumnType type = table->schema().column(col).type;
  if (type != ColumnType::kDouble && type != ColumnType::kInt64) {
    return Status::InvalidArgument("column '" + column + "' is not numeric");
  }
  for (size_t i = 0; i < table->num_rows(); ++i) {
    const Value v = table->Cell(i, col);
    if (v.is_null()) continue;
    double x = v.AsDouble();
    x += gaussian ? rng->NextGaussian(0.0, scale)
                  : rng->NextUniform(-scale, scale);
    table->SetCell(i, col,
                   type == ColumnType::kInt64
                       ? Value::Int(static_cast<int64_t>(std::llround(x)))
                       : Value::Real(x));
  }
  return Status::OK();
}

Status RankSwapRowAtATime(Table* table, const std::string& column,
                          double window_pct, Rng* rng) {
  PIYE_ASSIGN_OR_RETURN(size_t col, table->schema().IndexOf(column));
  // Dense values plus an explicit row<->value index map: value j lives in
  // table row rows[j], so the write-back below cannot misalign when NULLs
  // are interleaved.
  std::vector<double> xs;
  std::vector<size_t> rows;
  for (size_t i = 0; i < table->num_rows(); ++i) {
    const Value v = table->Cell(i, col);
    if (v.is_null()) continue;
    if (!v.is_numeric()) {
      return Status::InvalidArgument("column '" + column + "' is not numeric");
    }
    xs.push_back(v.AsDouble());
    rows.push_back(i);
  }
  // The seed RankSwapper::Swap algorithm, draw for draw.
  const size_t n = xs.size();
  std::vector<double> swapped = xs;
  if (n >= 2) {
    std::vector<size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    // Index tie-break, matching the pair sort in RankSwapper::Swap so both
    // engines produce the same permutation even on tied values.
    std::sort(order.begin(), order.end(), [&xs](size_t a, size_t b) {
      return xs[a] < xs[b] || (xs[a] == xs[b] && a < b);
    });
    std::vector<double> sorted(n);
    for (size_t r = 0; r < n; ++r) sorted[r] = xs[order[r]];
    const size_t window = std::max<size_t>(
        1, static_cast<size_t>(
               std::ceil(window_pct / 100.0 * static_cast<double>(n))));
    for (size_t r = 0; r + 1 < n; ++r) {
      const size_t hi = std::min(n - 1, r + window);
      const size_t partner = r + rng->NextBounded(hi - r + 1);
      std::swap(sorted[r], sorted[partner]);
    }
    for (size_t r = 0; r < n; ++r) swapped[order[r]] = sorted[r];
  }
  const bool is_int = table->schema().column(col).type == ColumnType::kInt64;
  for (size_t j = 0; j < rows.size(); ++j) {
    table->SetCell(rows[j], col,
                   is_int ? Value::Int(static_cast<int64_t>(
                                std::llround(swapped[j])))
                          : Value::Real(swapped[j]));
  }
  return Status::OK();
}

}  // namespace rowref
}  // namespace relational
}  // namespace piye
