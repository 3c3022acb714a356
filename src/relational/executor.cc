#include "relational/executor.h"

#include <algorithm>
#include <string>
#include <unordered_map>

#include "common/macros.h"
#include "relational/agg.h"
#include "relational/column.h"

namespace piye {
namespace relational {

namespace {

/// Rows per execution batch: predicate masks and row-fallback buffers work
/// over windows of this many rows so scratch state stays cache-resident.
constexpr size_t kBatchSize = 1024;

/// 0/1 bytes, one per row of the current batch.
using Mask = std::vector<uint8_t>;

// --- Compare-compatible cell helpers -------------------------------------
// All ordering below must agree exactly with Value::Compare: NULL ranks
// first, then BOOL < numeric < STRING; numerics compare as doubles (so two
// INT64s above 2^53 can tie), strings lexicographically. The differential
// harness checks the vectorized engine against the row engine, which uses
// Value::Compare directly.

double NumAt(const ColumnVector& c, size_t i) {
  return c.type() == ColumnType::kInt64 ? static_cast<double>(c.IntAt(i))
                                        : c.RealAt(i);
}

int ThreeWay(double a, double b) { return a < b ? -1 : (a > b ? 1 : 0); }

/// Compares two non-NULL cells of the same column.
int CellCompare(const ColumnVector& c, size_t i, size_t j) {
  switch (c.type()) {
    case ColumnType::kInt64:
    case ColumnType::kDouble:
      return ThreeWay(NumAt(c, i), NumAt(c, j));
    case ColumnType::kBool:
      return static_cast<int>(c.BoolAt(i)) - static_cast<int>(c.BoolAt(j));
    case ColumnType::kString: {
      const int r = c.StrAt(i).compare(c.StrAt(j));
      return r < 0 ? -1 : (r > 0 ? 1 : 0);
    }
  }
  return 0;
}

/// Compares non-NULL cell (a, i) against non-NULL cell (b, j) across
/// columns, following Value::Compare's cross-type rules.
int CellCompareCols(const ColumnVector& a, size_t i, const ColumnVector& b,
                    size_t j) {
  const int ra = TypeRank(a.type()), rb = TypeRank(b.type());
  if (ra != rb) return ra < rb ? -1 : 1;
  switch (ra) {
    case 1:
      return static_cast<int>(a.BoolAt(i)) - static_cast<int>(b.BoolAt(j));
    case 2:
      return ThreeWay(NumAt(a, i), NumAt(b, j));
    default: {
      const int r = a.StrAt(i).compare(b.StrAt(j));
      return r < 0 ? -1 : (r > 0 ? 1 : 0);
    }
  }
}

bool ApplyCmp(Expression::Op op, int c) {
  switch (op) {
    case Expression::Op::kEq:
      return c == 0;
    case Expression::Op::kNe:
      return c != 0;
    case Expression::Op::kLt:
      return c < 0;
    case Expression::Op::kLe:
      return c <= 0;
    case Expression::Op::kGt:
      return c > 0;
    case Expression::Op::kGe:
      return c >= 0;
    default:
      return false;
  }
}

void FillRow(const Table& t, size_t r, Row* row) {
  row->clear();
  for (size_t c = 0; c < t.num_columns(); ++c) row->push_back(t.Cell(r, c));
}

/// Row-at-a-time escape hatch for expression shapes without a vectorized
/// kernel (arithmetic subtrees, LIKE with computed patterns, ...). Evaluates
/// only the active rows, in row order, so error precedence matches the row
/// engine.
Status FallbackTruth(const Table& t, const Expression& e, size_t b0, size_t b1,
                     const Mask& active, Mask* out) {
  Row row;
  for (size_t r = b0; r < b1; ++r) {
    if (!active[r - b0]) {
      (*out)[r - b0] = 0;
      continue;
    }
    FillRow(t, r, &row);
    PIYE_ASSIGN_OR_RETURN(bool keep, e.EvaluatesTrue(row, t.schema()));
    (*out)[r - b0] = keep ? 1 : 0;
  }
  return Status::OK();
}

/// Comparison of a column against a non-NULL literal over one batch.
void CompareColLit(const ColumnVector& col, bool flipped, const Value& lit,
                   Expression::Op op, size_t b0, size_t b1, const Mask& active,
                   Mask* out) {
  const int rank_col = TypeRank(col.type());
  const int rank_lit = TypeRank(lit);
  if (rank_col != rank_lit) {
    // Cross-rank comparisons are constant for every non-NULL cell.
    int c = rank_col < rank_lit ? -1 : 1;
    if (flipped) c = -c;
    const bool keep = ApplyCmp(op, c);
    for (size_t r = b0; r < b1; ++r) {
      (*out)[r - b0] = (active[r - b0] && !col.IsNull(r) && keep) ? 1 : 0;
    }
    return;
  }
  switch (col.type()) {
    case ColumnType::kInt64: {
      const double b = lit.AsDouble();
      const int64_t* vals = col.ints();
      for (size_t r = b0; r < b1; ++r) {
        if (!active[r - b0] || col.IsNull(r)) {
          (*out)[r - b0] = 0;
          continue;
        }
        int c = ThreeWay(static_cast<double>(vals[r]), b);
        if (flipped) c = -c;
        (*out)[r - b0] = ApplyCmp(op, c) ? 1 : 0;
      }
      return;
    }
    case ColumnType::kDouble: {
      const double b = lit.AsDouble();
      const double* vals = col.reals();
      for (size_t r = b0; r < b1; ++r) {
        if (!active[r - b0] || col.IsNull(r)) {
          (*out)[r - b0] = 0;
          continue;
        }
        int c = ThreeWay(vals[r], b);
        if (flipped) c = -c;
        (*out)[r - b0] = ApplyCmp(op, c) ? 1 : 0;
      }
      return;
    }
    case ColumnType::kBool: {
      const int b = lit.AsBool() ? 1 : 0;
      for (size_t r = b0; r < b1; ++r) {
        if (!active[r - b0] || col.IsNull(r)) {
          (*out)[r - b0] = 0;
          continue;
        }
        int c = static_cast<int>(col.BoolAt(r)) - b;
        if (flipped) c = -c;
        (*out)[r - b0] = ApplyCmp(op, c) ? 1 : 0;
      }
      return;
    }
    case ColumnType::kString: {
      const std::string_view b = lit.AsString();
      for (size_t r = b0; r < b1; ++r) {
        if (!active[r - b0] || col.IsNull(r)) {
          (*out)[r - b0] = 0;
          continue;
        }
        const int raw = col.StrAt(r).compare(b);
        int c = raw < 0 ? -1 : (raw > 0 ? 1 : 0);
        if (flipped) c = -c;
        (*out)[r - b0] = ApplyCmp(op, c) ? 1 : 0;
      }
      return;
    }
  }
}

/// Evaluates `e` as a boolean mask over rows [b0, b1); out[i] corresponds to
/// row b0+i and is 0 wherever `active` is 0. AND/OR/NOT recurse with
/// narrowed active masks, preserving the row engine's short-circuit
/// semantics (a subexpression is only evaluated — and can only raise an
/// error — where its parent still needs it).
Status EvalTruth(const Table& t, const Expression& e, size_t b0, size_t b1,
                 const Mask& active, Mask* out) {
  const size_t width = b1 - b0;
  switch (e.op()) {
    case Expression::Op::kLiteral: {
      const Value& v = e.literal();
      bool truthy = false;
      if (v.is_bool()) {
        truthy = v.AsBool();
      } else if (v.is_numeric()) {
        truthy = v.AsDouble() != 0.0;
      } else if (v.is_string()) {
        truthy = !v.AsString().empty();
      }
      for (size_t i = 0; i < width; ++i) (*out)[i] = (active[i] && truthy) ? 1 : 0;
      return Status::OK();
    }
    case Expression::Op::kColumn: {
      PIYE_ASSIGN_OR_RETURN(size_t idx, t.schema().IndexOf(e.column()));
      const ColumnVector& col = t.col(idx);
      for (size_t r = b0; r < b1; ++r) {
        bool truthy = false;
        if (active[r - b0] && !col.IsNull(r)) {
          switch (col.type()) {
            case ColumnType::kInt64:
              truthy = col.IntAt(r) != 0;
              break;
            case ColumnType::kDouble:
              truthy = col.RealAt(r) != 0.0;
              break;
            case ColumnType::kBool:
              truthy = col.BoolAt(r);
              break;
            case ColumnType::kString:
              truthy = !col.StrAt(r).empty();
              break;
          }
        }
        (*out)[r - b0] = truthy ? 1 : 0;
      }
      return Status::OK();
    }
    case Expression::Op::kAnd: {
      Mask a(width, 0);
      PIYE_RETURN_NOT_OK(EvalTruth(t, *e.lhs(), b0, b1, active, &a));
      // rhs only where lhs held.
      return EvalTruth(t, *e.rhs(), b0, b1, a, out);
    }
    case Expression::Op::kOr: {
      Mask a(width, 0);
      PIYE_RETURN_NOT_OK(EvalTruth(t, *e.lhs(), b0, b1, active, &a));
      Mask rest(width, 0);
      for (size_t i = 0; i < width; ++i) rest[i] = (active[i] && !a[i]) ? 1 : 0;
      Mask b(width, 0);
      PIYE_RETURN_NOT_OK(EvalTruth(t, *e.rhs(), b0, b1, rest, &b));
      for (size_t i = 0; i < width; ++i) (*out)[i] = (a[i] || b[i]) ? 1 : 0;
      return Status::OK();
    }
    case Expression::Op::kNot: {
      Mask a(width, 0);
      PIYE_RETURN_NOT_OK(EvalTruth(t, *e.lhs(), b0, b1, active, &a));
      for (size_t i = 0; i < width; ++i) (*out)[i] = (active[i] && !a[i]) ? 1 : 0;
      return Status::OK();
    }
    case Expression::Op::kEq:
    case Expression::Op::kNe:
    case Expression::Op::kLt:
    case Expression::Op::kLe:
    case Expression::Op::kGt:
    case Expression::Op::kGe: {
      const Expression& l = *e.lhs();
      const Expression& r = *e.rhs();
      if (l.op() == Expression::Op::kColumn && r.op() == Expression::Op::kLiteral) {
        if (r.literal().is_null()) {
          std::fill(out->begin(), out->begin() + width, 0);
          return Status::OK();
        }
        PIYE_ASSIGN_OR_RETURN(size_t idx, t.schema().IndexOf(l.column()));
        CompareColLit(t.col(idx), /*flipped=*/false, r.literal(), e.op(), b0, b1,
                      active, out);
        return Status::OK();
      }
      if (l.op() == Expression::Op::kLiteral && r.op() == Expression::Op::kColumn) {
        if (l.literal().is_null()) {
          std::fill(out->begin(), out->begin() + width, 0);
          return Status::OK();
        }
        PIYE_ASSIGN_OR_RETURN(size_t idx, t.schema().IndexOf(r.column()));
        CompareColLit(t.col(idx), /*flipped=*/true, l.literal(), e.op(), b0, b1,
                      active, out);
        return Status::OK();
      }
      if (l.op() == Expression::Op::kColumn && r.op() == Expression::Op::kColumn) {
        PIYE_ASSIGN_OR_RETURN(size_t li, t.schema().IndexOf(l.column()));
        PIYE_ASSIGN_OR_RETURN(size_t ri, t.schema().IndexOf(r.column()));
        const ColumnVector& a = t.col(li);
        const ColumnVector& b = t.col(ri);
        for (size_t row = b0; row < b1; ++row) {
          const size_t i = row - b0;
          if (!active[i] || a.IsNull(row) || b.IsNull(row)) {
            (*out)[i] = 0;
            continue;
          }
          (*out)[i] = ApplyCmp(e.op(), CellCompareCols(a, row, b, row)) ? 1 : 0;
        }
        return Status::OK();
      }
      return FallbackTruth(t, e, b0, b1, active, out);
    }
    case Expression::Op::kIn: {
      const Expression& l = *e.lhs();
      if (l.op() != Expression::Op::kColumn) {
        return FallbackTruth(t, e, b0, b1, active, out);
      }
      PIYE_ASSIGN_OR_RETURN(size_t idx, t.schema().IndexOf(l.column()));
      const ColumnVector& col = t.col(idx);
      // Only IN-list values of the column's type rank can ever SqlEqual a
      // cell; collect them once, typed.
      const int rank = TypeRank(col.type());
      std::vector<double> nums;
      std::vector<std::string_view> strs;
      std::vector<bool> bools;
      for (const Value& v : e.in_values()) {
        if (v.is_null() || TypeRank(v) != rank) continue;
        if (rank == 2) {
          nums.push_back(v.AsDouble());
        } else if (rank == 3) {
          strs.push_back(v.AsString());
        } else {
          bools.push_back(v.AsBool());
        }
      }
      for (size_t r = b0; r < b1; ++r) {
        const size_t i = r - b0;
        if (!active[i] || col.IsNull(r)) {
          (*out)[i] = 0;
          continue;
        }
        bool hit = false;
        if (rank == 2) {
          const double x = NumAt(col, r);
          for (double v : nums) {
            if (x == v) {
              hit = true;
              break;
            }
          }
        } else if (rank == 3) {
          const std::string_view x = col.StrAt(r);
          for (std::string_view v : strs) {
            if (x == v) {
              hit = true;
              break;
            }
          }
        } else {
          const bool x = col.BoolAt(r);
          for (bool v : bools) {
            if (x == v) {
              hit = true;
              break;
            }
          }
        }
        (*out)[i] = hit ? 1 : 0;
      }
      return Status::OK();
    }
    case Expression::Op::kLike: {
      const Expression& l = *e.lhs();
      const Expression& r = *e.rhs();
      if (l.op() != Expression::Op::kColumn || r.op() != Expression::Op::kLiteral) {
        return FallbackTruth(t, e, b0, b1, active, out);
      }
      if (r.literal().is_null()) {
        std::fill(out->begin(), out->begin() + width, 0);
        return Status::OK();
      }
      PIYE_ASSIGN_OR_RETURN(size_t idx, t.schema().IndexOf(l.column()));
      const ColumnVector& col = t.col(idx);
      for (size_t row = b0; row < b1; ++row) {
        const size_t i = row - b0;
        if (!active[i] || col.IsNull(row)) {
          (*out)[i] = 0;
          continue;
        }
        if (col.type() != ColumnType::kString || !r.literal().is_string()) {
          return Status::InvalidArgument("LIKE requires string operands");
        }
        (*out)[i] = SqlLikeMatch(col.StrAt(row), r.literal().AsString()) ? 1 : 0;
      }
      return Status::OK();
    }
    default:
      // Arithmetic (and anything else) used as a predicate.
      return FallbackTruth(t, e, b0, b1, active, out);
  }
}

/// Evaluates `predicate` over every row of `input`, batch by batch, and
/// hands each batch's truth mask to `emit(b0, b1, mask)`.
template <typename Emit>
Status EvalBatches(const Table& input, const Expression& predicate, Emit emit) {
  const size_t n = input.num_rows();
  Mask active(kBatchSize, 1);
  Mask out(kBatchSize, 0);
  for (size_t b0 = 0; b0 < n; b0 += kBatchSize) {
    const size_t b1 = std::min(b0 + kBatchSize, n);
    std::fill(active.begin(), active.begin() + (b1 - b0), 1);
    PIYE_RETURN_NOT_OK(EvalTruth(input, predicate, b0, b1, active, &out));
    emit(b0, b1, out);
  }
  return Status::OK();
}

}  // namespace

Selection Selection::All(size_t num_rows) {
  Selection s;
  s.count = num_rows;
  return s;
}

Selection Selection::Rows(std::vector<uint32_t> rows) {
  Selection s;
  s.kind = Kind::kRows;
  s.count = rows.size();
  s.rows = std::move(rows);
  return s;
}

Selection Selection::Mask(std::vector<uint8_t> mask) {
  Selection s;
  s.kind = Kind::kMask;
  for (uint8_t m : mask) s.count += m;
  s.mask = std::move(mask);
  return s;
}

Result<std::vector<uint32_t>> Executor::FilterSelection(const Table& input,
                                                        const Expression& predicate) {
  std::vector<uint32_t> sel;
  auto collect = [&sel](size_t b0, size_t b1, const Mask& out) {
    for (size_t r = b0; r < b1; ++r) {
      if (out[r - b0]) sel.push_back(static_cast<uint32_t>(r));
    }
  };
  PIYE_RETURN_NOT_OK(EvalBatches(input, predicate, collect));
  return sel;
}

Result<std::vector<uint8_t>> Executor::FilterMask(const Table& input,
                                                  const Expression& predicate) {
  std::vector<uint8_t> mask(input.num_rows());
  auto copy = [&mask](size_t b0, size_t b1, const Mask& out) {
    std::copy(out.begin(), out.begin() + (b1 - b0), mask.begin() + b0);
  };
  PIYE_RETURN_NOT_OK(EvalBatches(input, predicate, copy));
  return mask;
}

Result<Table> Executor::Filter(const Table& input, const ExprPtr& predicate) {
  if (predicate == nullptr) return input;
  PIYE_ASSIGN_OR_RETURN(std::vector<uint32_t> sel, FilterSelection(input, *predicate));
  return input.Gather(sel);
}

Result<Table> Executor::Project(const Table& input,
                                const std::vector<std::string>& columns) {
  std::vector<size_t> idx;
  idx.reserve(columns.size());
  for (const auto& c : columns) {
    PIYE_ASSIGN_OR_RETURN(size_t i, input.schema().IndexOf(c));
    idx.push_back(i);
  }
  // Columns are shared, not copied: projection is O(#columns).
  return input.ProjectShared(idx);
}

Result<Table> Executor::Aggregate(const Table& input,
                                  const std::vector<std::string>& group_by,
                                  const std::vector<SelectItem>& aggregates,
                                  const uint8_t* mask) {
  if (mask != nullptr && !group_by.empty()) {
    return Status::InvalidArgument("a selection mask needs a global aggregation");
  }
  // Resolve group and aggregate column indices.
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
    }
    specs.push_back(std::move(spec));
  }

  const size_t n = input.num_rows();

  // Assign each row a dense group id via the canonical cell-key encoding
  // (Compare-equality, including NULL keys). Group ids are issued in first-
  // appearance order, which is also the output row order.
  std::vector<uint32_t> gid(n, 0);
  std::vector<uint32_t> group_first_row;
  size_t num_groups = 0;
  if (group_idx.empty()) {
    // Global aggregation: one group, even over an empty input. Under a mask,
    // unselected rows go to group 1, which is accumulated but not emitted.
    num_groups = 1;
    if (mask != nullptr) {
      for (size_t r = 0; r < n; ++r) gid[r] = mask[r] ^ 1u;
      num_groups = 2;
    }
  } else if (group_idx.size() == 1 &&
             input.col(group_idx[0]).type() == ColumnType::kInt64) {
    // Single INT64 key: group straight off the typed buffer, no per-row
    // key encoding. NULL keys form their own group, same as the encoder.
    const ColumnVector& c = input.col(group_idx[0]);
    const int64_t* vals = c.ints();
    std::unordered_map<int64_t, uint32_t> keymap;
    keymap.reserve(64);
    constexpr uint32_t kUnassigned = 0xffffffffu;
    uint32_t null_gid = kUnassigned;
    for (size_t r = 0; r < n; ++r) {
      if (c.IsNull(r)) {
        if (null_gid == kUnassigned) {
          null_gid = static_cast<uint32_t>(num_groups++);
          group_first_row.push_back(static_cast<uint32_t>(r));
        }
        gid[r] = null_gid;
        continue;
      }
      auto [it, inserted] =
          keymap.try_emplace(vals[r], static_cast<uint32_t>(num_groups));
      if (inserted) {
        group_first_row.push_back(static_cast<uint32_t>(r));
        ++num_groups;
      }
      gid[r] = it->second;
    }
  } else {
    std::unordered_map<std::string, uint32_t> keymap;
    keymap.reserve(n);
    std::string key;
    for (size_t r = 0; r < n; ++r) {
      key.clear();
      for (size_t i : group_idx) input.col(i).EncodeCell(r, &key);
      // try_emplace copies the key buffer only when it actually inserts.
      auto [it, inserted] =
          keymap.try_emplace(key, static_cast<uint32_t>(num_groups));
      if (inserted) {
        group_first_row.push_back(static_cast<uint32_t>(r));
        ++num_groups;
      }
      gid[r] = it->second;
    }
  }

  // Accumulate one state vector per spec, column-at-a-time: each pass
  // streams one contiguous typed buffer through the shared NumericAgg math
  // (or a typed extrema scan for MIN/MAX).
  constexpr uint32_t kNoRow = 0xffffffffu;
  std::vector<std::vector<NumericAgg>> agg(specs.size());
  std::vector<std::vector<uint32_t>> extreme(specs.size());
  for (size_t s = 0; s < specs.size(); ++s) {
    const AggSpec& spec = specs[s];
    if (spec.func == AggFunc::kMin || spec.func == AggFunc::kMax) {
      extreme[s].assign(num_groups, kNoRow);
    } else {
      agg[s].assign(num_groups, NumericAgg{});
    }
    if (mask != nullptr && spec.func == AggFunc::kCount) {
      // A masked COUNT is a branch-free sum over every row; scattering
      // increments across two groups would cost more as the mask mixes.
      size_t count = 0;
      if (spec.col < 0) {
        for (size_t r = 0; r < n; ++r) count += mask[r];
      } else {
        const ColumnVector& c = input.col(static_cast<size_t>(spec.col));
        for (size_t r = 0; r < n; ++r) count += mask[r] & (c.IsNull(r) ? 0u : 1u);
      }
      agg[s][0].count = count;
      continue;
    }
    if (spec.col < 0) {
      for (size_t r = 0; r < n; ++r) ++agg[s][gid[r]].count;  // COUNT(*)
      continue;
    }
    const ColumnVector& c = input.col(static_cast<size_t>(spec.col));
    switch (spec.func) {
      case AggFunc::kCount:
        for (size_t r = 0; r < n; ++r) {
          if (!c.IsNull(r)) ++agg[s][gid[r]].count;
        }
        break;
      case AggFunc::kMin:
        for (size_t r = 0; r < n; ++r) {
          if (c.IsNull(r)) continue;
          uint32_t& best = extreme[s][gid[r]];
          if (best == kNoRow || CellCompare(c, r, best) < 0) {
            best = static_cast<uint32_t>(r);
          }
        }
        break;
      case AggFunc::kMax:
        for (size_t r = 0; r < n; ++r) {
          if (c.IsNull(r)) continue;
          uint32_t& best = extreme[s][gid[r]];
          if (best == kNoRow || CellCompare(c, r, best) > 0) {
            best = static_cast<uint32_t>(r);
          }
        }
        break;
      default:  // SUM / AVG / STDDEV
        switch (c.type()) {
          case ColumnType::kInt64: {
            const int64_t* vals = c.ints();
            for (size_t r = 0; r < n; ++r) {
              if (!c.IsNull(r)) agg[s][gid[r]].AddInt(vals[r]);
            }
            break;
          }
          case ColumnType::kDouble: {
            const double* vals = c.reals();
            for (size_t r = 0; r < n; ++r) {
              if (!c.IsNull(r)) agg[s][gid[r]].AddReal(vals[r]);
            }
            break;
          }
          default:
            for (size_t r = 0; r < n; ++r) {
              if (!c.IsNull(r)) agg[s][gid[r]].AddNonNumeric();
            }
            break;
        }
        break;
    }
  }

  // An INT64 SUM column stays INT64 unless some emitted group actually
  // overflowed the exact accumulator, in which case the whole column widens
  // to DOUBLE.
  const size_t emitted = mask != nullptr ? 1 : num_groups;
  std::vector<bool> int_input(specs.size(), false);
  for (size_t s = 0; s < specs.size(); ++s) {
    AggSpec& spec = specs[s];
    if (spec.col < 0) continue;
    int_input[s] = input.schema().column(static_cast<size_t>(spec.col)).type ==
                   ColumnType::kInt64;
    if (spec.func == AggFunc::kSum && int_input[s]) {
      for (size_t g = 0; g < emitted; ++g) {
        const NumericAgg& a = agg[s][g];
        if (a.count > 0 && a.ioverflow) {
          spec.out_type = ColumnType::kDouble;
          break;
        }
      }
    }
  }

  // Emit column-wise: group-key columns are gathers of each group's first
  // row; aggregate columns are built value-by-value from Finish.
  Table out;
  for (size_t k = 0; k < group_idx.size(); ++k) {
    const ColumnVector& src = input.col(group_idx[k]);
    out.AddColumn(input.schema().column(group_idx[k]),
                  src.Gather(group_first_row.data(), group_first_row.size()));
  }
  for (size_t s = 0; s < specs.size(); ++s) {
    const AggSpec& spec = specs[s];
    ColumnVector data(spec.out_type);
    data.Reserve(emitted);
    if (spec.func == AggFunc::kMin || spec.func == AggFunc::kMax) {
      const ColumnVector& src = input.col(static_cast<size_t>(spec.col));
      for (size_t g = 0; g < emitted; ++g) {
        const uint32_t best = extreme[s][g];
        if (best == kNoRow) {
          data.AppendNull();
        } else {
          data.AppendFrom(src, best);
        }
      }
    } else {
      for (size_t g = 0; g < emitted; ++g) {
        data.AppendValue(agg[s][g].Finish(spec.func, int_input[s]));
      }
    }
    out.AddColumn({spec.out_name, spec.out_type}, std::move(data));
  }
  return out;
}

Result<Table> Executor::Execute(const SelectStatement& stmt, const Table& base,
                                const Selection& selection) {
  if (selection.kind == Selection::Kind::kMask &&
      selection.mask.size() != base.num_rows()) {
    return Status::InvalidArgument("selection mask does not cover the table");
  }
  // Late materialization: only the columns the statement reads are gathered
  // through the selection. A name the base lacks is left out, so the step
  // that reads it fails on `filtered` with the same error as on the whole
  // table.
  std::vector<size_t> read;
  auto add_read = [&read, &base](const std::string& name) {
    auto idx = base.schema().IndexOf(name);
    if (idx.ok() && std::find(read.begin(), read.end(), *idx) == read.end()) {
      read.push_back(*idx);
    }
  };
  for (const auto& item : stmt.items) {
    if (!item.column.empty()) add_read(item.column);
  }
  for (const auto& g : stmt.group_by) add_read(g);
  Table filtered = base.ProjectShared(read);
  const uint8_t* mask = nullptr;
  switch (selection.kind) {
    case Selection::Kind::kAll:
      break;
    case Selection::Kind::kRows:
      filtered = filtered.Gather(selection.rows);
      break;
    case Selection::Kind::kMask:
      if (stmt.HasAggregates() && stmt.group_by.empty()) {
        mask = selection.mask.data();
      } else {
        std::vector<uint32_t> rows;
        rows.reserve(selection.count);
        for (size_t r = 0; r < selection.mask.size(); ++r) {
          if (selection.mask[r]) rows.push_back(static_cast<uint32_t>(r));
        }
        filtered = filtered.Gather(rows);
      }
      break;
  }

  Table result;
  if (stmt.HasAggregates() || !stmt.group_by.empty()) {
    // Split items into group columns and aggregates; group columns must be in
    // GROUP BY.
    std::vector<SelectItem> aggs;
    std::vector<std::string> out_columns;
    for (const auto& item : stmt.items) {
      if (item.kind == SelectItem::Kind::kAggregate) {
        aggs.push_back(item);
        out_columns.push_back(item.OutputName());
      } else {
        const bool grouped =
            std::find(stmt.group_by.begin(), stmt.group_by.end(), item.column) !=
            stmt.group_by.end();
        if (!grouped) {
          return Status::InvalidArgument("column '" + item.column +
                                         "' must appear in GROUP BY");
        }
        out_columns.push_back(item.column);
      }
    }
    PIYE_ASSIGN_OR_RETURN(Table agg, Aggregate(filtered, stmt.group_by, aggs, mask));
    // Reorder/alias output columns to the select-list order.
    // Build rename-aware projection: group cols keep names; aggregates were
    // named by OutputName already.
    PIYE_ASSIGN_OR_RETURN(result, Project(agg, out_columns));
  } else {
    std::vector<std::string> columns;
    for (const auto& item : stmt.items) columns.push_back(item.column);
    PIYE_ASSIGN_OR_RETURN(result, Project(filtered, columns));
  }
  // Apply SELECT aliases to the output schema.
  for (size_t i = 0; i < stmt.items.size(); ++i) {
    if (!stmt.items[i].alias.empty()) {
      result.mutable_schema().SetColumnName(i, stmt.items[i].alias);
    }
  }
  return result;
}

}  // namespace relational
}  // namespace piye
