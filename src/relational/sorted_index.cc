#include "relational/sorted_index.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <string>

#include "common/macros.h"

namespace piye {
namespace relational {

namespace {

using Op = Expression::Op;

bool IsComparison(Op op) {
  return op == Op::kEq || op == Op::kNe || op == Op::kLt || op == Op::kLe ||
         op == Op::kGt || op == Op::kGe;
}

/// Mirrors the executor's EvalTruth: true when evaluating `e` as a
/// predicate takes only vectorized kernels that cannot fail. Anything that
/// reaches the row engine (arithmetic, computed comparisons) or a kernel
/// that checks its operands (LIKE) is treated as able to raise.
bool CannotRaise(const Expression& e, const Schema& schema) {
  switch (e.op()) {
    case Op::kLiteral:
      return true;
    case Op::kColumn:
      return schema.Contains(e.column());
    case Op::kAnd:
    case Op::kOr:
      return CannotRaise(*e.lhs(), schema) && CannotRaise(*e.rhs(), schema);
    case Op::kNot:
      return CannotRaise(*e.lhs(), schema);
    case Op::kIn:
      return e.lhs()->op() == Op::kColumn && schema.Contains(e.lhs()->column());
    default:
      break;
  }
  if (!IsComparison(e.op())) return false;
  const Expression& l = *e.lhs();
  const Expression& r = *e.rhs();
  const bool l_col = l.op() == Op::kColumn, r_col = r.op() == Op::kColumn;
  if (l_col && r_col) return schema.Contains(l.column()) && schema.Contains(r.column());
  if (l_col && r.op() == Op::kLiteral) return schema.Contains(l.column());
  if (l.op() == Op::kLiteral && r_col) return schema.Contains(r.column());
  return false;
}

Op Flip(Op op) {
  switch (op) {
    case Op::kLt:
      return Op::kGt;
    case Op::kLe:
      return Op::kGe;
    case Op::kGt:
      return Op::kLt;
    case Op::kGe:
      return Op::kLe;
    default:
      return op;
  }
}

/// The column index and normalised bound of a conjunct that bounds a column
/// against a literal of the column's type rank, if it is one.
std::optional<std::pair<size_t, IndexBound>> AsBound(const Expression& e,
                                                     const Table& table) {
  if (!IsComparison(e.op()) || e.op() == Op::kNe) return std::nullopt;
  const Expression& l = *e.lhs();
  const Expression& r = *e.rhs();
  const Expression* column = nullptr;
  const Expression* literal = nullptr;
  Op op = e.op();
  if (l.op() == Op::kColumn && r.op() == Op::kLiteral) {
    column = &l;
    literal = &r;
  } else if (l.op() == Op::kLiteral && r.op() == Op::kColumn) {
    column = &r;
    literal = &l;
    op = Flip(op);
  } else {
    return std::nullopt;
  }
  const Value& v = literal->literal();
  if (v.is_null() || (v.is_double() && std::isnan(v.AsDouble()))) return std::nullopt;
  auto idx = table.schema().IndexOf(column->column());
  if (!idx.ok() || TypeRank(table.col(*idx).type()) != TypeRank(v)) {
    return std::nullopt;
  }
  return std::make_pair(*idx, IndexBound{op, v});
}

void CollectConjuncts(const ExprPtr& e, std::vector<ExprPtr>* out) {
  if (e->op() == Op::kAnd) {
    CollectConjuncts(e->lhs(), out);
    CollectConjuncts(e->rhs(), out);
  } else {
    out->push_back(e);
  }
}

/// Three-way comparison of non-NULL cell `i` of `col` with a literal of the
/// column's type rank, as Value::Compare orders them.
int CompareToLiteral(const ColumnVector& col, size_t i, const Value& lit) {
  switch (col.type()) {
    case ColumnType::kInt64:
    case ColumnType::kDouble: {
      const double a = col.type() == ColumnType::kInt64
                           ? static_cast<double>(col.IntAt(i))
                           : col.RealAt(i);
      const double b = lit.AsDouble();
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    case ColumnType::kBool:
      return static_cast<int>(col.BoolAt(i)) - static_cast<int>(lit.AsBool());
    case ColumnType::kString: {
      const int c = col.StrAt(i).compare(lit.AsString());
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
  }
  return 0;
}

}  // namespace

std::optional<IndexableWhere> MatchIndexable(const ExprPtr& where, const Table& table) {
  if (where == nullptr || !CannotRaise(*where, table.schema())) return std::nullopt;
  std::vector<ExprPtr> conjuncts;
  CollectConjuncts(where, &conjuncts);
  IndexableWhere out;
  bool bounded = false;
  for (const ExprPtr& conjunct : conjuncts) {
    auto bound = AsBound(*conjunct, table);
    if (!bound.has_value()) {
      out.residual = Expression::And(out.residual, conjunct);
      continue;
    }
    if (bounded && bound->first != out.column) return std::nullopt;
    out.column = bound->first;
    out.bounds.push_back(std::move(bound->second));
    bounded = true;
  }
  if (!bounded) return std::nullopt;
  return out;
}

std::optional<SortedIndex> SortedIndex::Build(const ColumnVector& col) {
  const size_t n = col.size();
  SortedIndex index;
  index.perm_.resize(n);
  std::iota(index.perm_.begin(), index.perm_.end(), 0u);
  auto non_null = std::stable_partition(index.perm_.begin(), index.perm_.end(),
                                        [&col](uint32_t r) { return col.IsNull(r); });
  index.nulls_ = static_cast<uint32_t>(non_null - index.perm_.begin());
  auto sort_by = [&](auto key) {
    std::sort(non_null, index.perm_.end(), [&key](uint32_t a, uint32_t b) {
      const auto ka = key(a), kb = key(b);
      return ka < kb || (!(kb < ka) && a < b);
    });
  };
  switch (col.type()) {
    case ColumnType::kInt64:
      // Exact integer order refines the double order Compare uses, so every
      // bound still selects one contiguous run.
      sort_by([&col](uint32_t r) { return col.IntAt(r); });
      break;
    case ColumnType::kDouble:
      for (auto it = non_null; it != index.perm_.end(); ++it) {
        if (std::isnan(col.RealAt(*it))) return std::nullopt;
      }
      sort_by([&col](uint32_t r) { return col.RealAt(r); });
      break;
    case ColumnType::kBool:
      sort_by([&col](uint32_t r) { return col.BoolAt(r); });
      break;
    case ColumnType::kString:
      sort_by([&col](uint32_t r) { return col.StrAt(r); });
      break;
  }
  index.rank_.resize(n);
  for (size_t p = 0; p < n; ++p) index.rank_[index.perm_[p]] = static_cast<uint32_t>(p);
  return index;
}

SortedIndex::Range SortedIndex::Find(const ColumnVector& col,
                                     const std::vector<IndexBound>& bounds) const {
  Range range{nulls_, static_cast<uint32_t>(perm_.size())};
  const auto first = perm_.begin() + nulls_;
  const auto last = perm_.end();
  for (const IndexBound& bound : bounds) {
    // First position whose cell compares >= (or >) the literal.
    auto partition = [&](bool strictly_greater) {
      auto it = std::partition_point(first, last, [&](uint32_t r) {
        const int c = CompareToLiteral(col, r, bound.literal);
        return strictly_greater ? c <= 0 : c < 0;
      });
      return static_cast<uint32_t>(it - perm_.begin());
    };
    uint32_t lo = nulls_, hi = static_cast<uint32_t>(perm_.size());
    switch (bound.op) {
      case Op::kLt:
        hi = partition(false);
        break;
      case Op::kLe:
        hi = partition(true);
        break;
      case Op::kGt:
        lo = partition(true);
        break;
      case Op::kGe:
        lo = partition(false);
        break;
      default:  // kEq
        lo = partition(false);
        hi = partition(true);
        break;
    }
    range.lo = std::max(range.lo, lo);
    range.hi = std::min(range.hi, hi);
  }
  if (range.hi < range.lo) range.hi = range.lo;
  return range;
}

Result<Selection> SortedIndex::Select(const Table& table, Range range,
                                      const ExprPtr& residual,
                                      Selection::Kind shape) const {
  const size_t n = rank_.size();
  if (shape == Selection::Kind::kMask) {
    // rank - lo wraps past the width for every rank below lo.
    const uint32_t width = range.hi - range.lo;
    std::vector<uint8_t> mask(n);
    for (size_t r = 0; r < n; ++r) {
      mask[r] = static_cast<uint8_t>(rank_[r] - range.lo < width);
    }
    if (residual != nullptr) {
      PIYE_ASSIGN_OR_RETURN(const std::vector<uint8_t> rest,
                            Executor::FilterMask(table, *residual));
      for (size_t r = 0; r < n; ++r) mask[r] &= rest[r];
    }
    return Selection::Mask(std::move(mask));
  }
  // Mark the range's rows in a bitmap, then read the set bits in order.
  std::vector<uint64_t> bits((n + 63) / 64, 0);
  for (uint32_t p = range.lo; p < range.hi; ++p) {
    bits[perm_[p] >> 6] |= uint64_t{1} << (perm_[p] & 63);
  }
  std::vector<uint32_t> rows;
  rows.reserve(range.size());
  for (size_t w = 0; w < bits.size(); ++w) {
    for (uint64_t word = bits[w]; word != 0; word &= word - 1) {
      rows.push_back(static_cast<uint32_t>(w * 64 + __builtin_ctzll(word)));
    }
  }
  if (residual != nullptr) {
    // Evaluate the residual on a gather of the candidates' referenced columns.
    std::set<std::string> names;
    residual->CollectColumns(&names);
    std::vector<size_t> cols;
    for (const std::string& name : names) {
      PIYE_ASSIGN_OR_RETURN(size_t c, table.schema().IndexOf(name));
      cols.push_back(c);
    }
    if (cols.empty()) cols.push_back(0);  // a table without columns has no rows
    PIYE_ASSIGN_OR_RETURN(
        const std::vector<uint32_t> kept,
        Executor::FilterSelection(table.ProjectShared(cols).Gather(rows), *residual));
    for (size_t i = 0; i < kept.size(); ++i) rows[i] = rows[kept[i]];
    rows.resize(kept.size());
  }
  return Selection::Rows(std::move(rows));
}

}  // namespace relational
}  // namespace piye
