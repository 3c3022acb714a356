#ifndef PIYE_RELATIONAL_AGG_H_
#define PIYE_RELATIONAL_AGG_H_

#include <cmath>
#include <cstdint>

#include "relational/sql.h"
#include "relational/value.h"

namespace piye {
namespace relational {

/// Shared accumulator math for SUM/AVG/STDDEV/COUNT, used by both the
/// vectorized executor and the row-at-a-time reference engine
/// (tests/reference/rowref.h) so the differential harness compares
/// bit-identical floating-point results — both engines apply the identical
/// operation sequence in row order.
///
/// Two deliberate fixes over the seed engine live here:
///  - STDDEV uses Welford's single-pass recurrence (mean, m2) instead of
///    `sum_sq/n - mean^2`, which cancels catastrophically when the mean
///    dwarfs the spread (mean ~1e9, stddev ~1 lost every significant digit).
///  - INT64 inputs accumulate an exact `int64_t` sum (overflow-checked);
///    the naive double `sum` is kept alongside as the overflow fallback and
///    for double inputs, and widening happens only at Finish.
struct NumericAgg {
  size_t count = 0;
  int64_t isum = 0;       ///< exact integer sum (valid while !ioverflow)
  bool ioverflow = false; ///< int64 sum overflowed; fall back to `sum`
  double sum = 0.0;       ///< naive double sum (seed-identical for doubles)
  double mean = 0.0;      ///< Welford running mean
  double m2 = 0.0;        ///< Welford sum of squared deviations

  void AddReal(double x) {
    ++count;
    sum += x;
    const double d = x - mean;
    mean += d / static_cast<double>(count);
    m2 += d * (x - mean);
  }

  void AddInt(int64_t v) {
    if (!ioverflow) {
      int64_t next = 0;
      if (__builtin_add_overflow(isum, v, &next)) {
        ioverflow = true;
      } else {
        isum = next;
      }
    }
    AddReal(static_cast<double>(v));
  }

  /// Non-numeric non-NULL cell: counts toward COUNT but not the sums,
  /// matching the seed engine (SUM over a string column is 0.0, not NULL).
  void AddNonNumeric() { ++count; }

  /// Finishes a SUM/AVG/STDDEV/COUNT aggregate. `int_input` is true when
  /// the aggregated column is kInt64 — those sums/averages use the exact
  /// integer accumulator unless it overflowed. MIN/MAX are finished by the
  /// callers (they track typed extrema / Value extrema themselves).
  Value Finish(AggFunc func, bool int_input) const {
    switch (func) {
      case AggFunc::kCount:
        return Value::Int(static_cast<int64_t>(count));
      case AggFunc::kSum:
        if (count == 0) return Value::Null();
        if (int_input && !ioverflow) return Value::Int(isum);
        return Value::Real(sum);
      case AggFunc::kAvg:
        if (count == 0) return Value::Null();
        if (int_input && !ioverflow) {
          return Value::Real(static_cast<double>(isum) /
                             static_cast<double>(count));
        }
        return Value::Real(sum / static_cast<double>(count));
      case AggFunc::kStdDev:
        if (count == 0) return Value::Null();
        // Population stddev, like the seed engine; m2 is non-negative by
        // construction so no clamp is needed.
        return Value::Real(std::sqrt(m2 / static_cast<double>(count)));
      default:
        return Value::Null();
    }
  }
};

/// Output column type for an aggregate over `input_type`. SUM over INT64
/// stays INT64 (exact); the executor demotes the column to DOUBLE only if
/// some group's sum actually overflowed.
inline ColumnType AggResultType(AggFunc func, ColumnType input_type) {
  switch (func) {
    case AggFunc::kCount:
      return ColumnType::kInt64;
    case AggFunc::kMin:
    case AggFunc::kMax:
      return input_type;
    case AggFunc::kSum:
      return input_type == ColumnType::kInt64 ? ColumnType::kInt64
                                              : ColumnType::kDouble;
    default:
      return ColumnType::kDouble;
  }
}

}  // namespace relational
}  // namespace piye

#endif  // PIYE_RELATIONAL_AGG_H_
