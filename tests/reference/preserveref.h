#ifndef PIYE_TESTS_REFERENCE_PRESERVEREF_H_
#define PIYE_TESTS_REFERENCE_PRESERVEREF_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "policy/policy.h"
#include "relational/table.h"
#include "source/preservation.h"

namespace piye {
namespace source {
namespace preserveref {

// The string-keyed generalization and suppression the Privacy Preservation
// module used before its typed kernels, kept as the oracle for them:
// property_test diffs PreservationModule::Apply against Apply below byte
// for byte, and bench_fig2_pipeline's --quick gate and bench_rewrite's
// preserve split time the two.
//
// Generalization formats every numeric label per row and builds every
// STRING label as a temporary std::string; the table is rebuilt column by
// column. Suppression keys each row by its quasi-identifiers'
// ColumnVector::EncodeCell bytes in an unordered_map and always gathers.
// Its one change from the old kernel: a NaN bound of a range label prints
// as "nan" whatever its sign bit, which NaN arithmetic left to codegen.

using Forms = std::map<std::string, policy::DisclosureForm>;

/// Coarsens every kRange/kGeneralized column of `table`.
void Generalize(relational::Table* table, const Forms& forms);

/// The suppression class of every row (classes numbered by first
/// occurrence) over the kRange/kGeneralized columns; empty when there are
/// none.
std::vector<uint32_t> ClassIds(const relational::Table& table, const Forms& forms);

/// Drops the rows whose class has fewer than `k` rows, by one gather.
void Suppress(relational::Table* table, const Forms& forms, size_t k);

/// Applies `techniques` in order. Only kGeneralization and kSuppression
/// are modelled; any other technique is an InvalidArgument.
Result<relational::Table> Apply(relational::Table table, const Forms& forms,
                                const std::vector<Technique>& techniques, size_t k);

}  // namespace preserveref
}  // namespace source
}  // namespace piye

#endif  // PIYE_TESTS_REFERENCE_PRESERVEREF_H_
