#ifndef PIYE_TESTS_REFERENCE_ROWREF_H_
#define PIYE_TESTS_REFERENCE_ROWREF_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "relational/sql.h"
#include "relational/table.h"

namespace piye {
namespace relational {
namespace rowref {

// The seed row-at-a-time engine, preserved verbatim as the semantic
// reference for the vectorized executor. Every operator here walks
// materialized Rows exactly like the engine this repo shipped with; the
// differential harness (tests/relational_test.cc) runs both engines over
// randomized tables and requires value-identical answers, and
// bench_fig2_pipeline uses these as the row-engine baseline for the
// columnar speedup gate.
//
// The only intentional departures from the seed are the three audited
// bugfixes, which are shared with the vectorized engine via
// relational/agg.h so both engines apply bit-identical arithmetic:
// Welford STDDEV, exact INT64 SUM/AVG accumulation, and (in the perturbation
// baselines below) NULL-aware write-back.

/// Row `i` of `t`, materialized cell by cell: `Table` itself is columnar
/// and has no row accessor; the oracle and the row-level expression tests
/// build rows here.
Row RowAt(const Table& t, size_t i);

Result<Table> Filter(const Table& input, const ExprPtr& predicate);
Result<Table> Project(const Table& input, const std::vector<std::string>& columns);
Result<Table> Aggregate(const Table& input,
                        const std::vector<std::string>& group_by,
                        const std::vector<SelectItem>& aggregates);

// Row-at-a-time perturbation baselines mirroring perturb/noise.cc and
// perturb/swapping.cc cell for cell (same RNG draw order, same rounding),
// so the columnar kernels can be differentially tested against them with a
// shared seed — including NULL alignment, which the rank-swap write-back
// historically got wrong on columns with interleaved NULLs.

/// Gaussian additive noise over a numeric column, one Value round-trip per
/// row. `gaussian` selects NextGaussian(0, scale) vs NextUniform(-s, s).
Status AddNoiseRowAtATime(Table* table, const std::string& column,
                          bool gaussian, double scale, Rng* rng);

/// Rank swapping over a numeric column with an explicit row<->value index
/// map (the corrected seed algorithm).
Status RankSwapRowAtATime(Table* table, const std::string& column,
                          double window_pct, Rng* rng);

}  // namespace rowref
}  // namespace relational
}  // namespace piye

#endif  // PIYE_TESTS_REFERENCE_ROWREF_H_
