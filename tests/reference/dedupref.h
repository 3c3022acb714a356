#ifndef PIYE_TESTS_REFERENCE_DEDUPREF_H_
#define PIYE_TESTS_REFERENCE_DEDUPREF_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "relational/table.h"

namespace piye {
namespace relational {
namespace dedupref {

// The display-string duplicate elimination the Result Integrator used
// before the typed kernel
// (relational::FirstOccurrences), kept cell by cell as the oracle for it:
// property_test diffs the two on seeded multi-source inputs and
// bench_fig2_pipeline's --quick gate times the integrator against it.
//
// A row's key is its cells' ToDisplayString() joined with '\x1f', so two
// known collisions are part of this reference and must be kept out of any
// input it judges: a string containing '\x1f', and the string "NULL"
// (which renders like a NULL cell).

/// One source's answer, columns already mediated-named.
struct Source {
  std::string owner;
  Table table;
};

/// Union over the sources' columns (NULL padding, AppendValue coercion to
/// the first source's type), a `_source` provenance column, then the first
/// occurrence of each key: `dedup_keys`, or the whole row without
/// provenance when empty.
Result<Table> Integrate(const std::vector<Source>& sources,
                        const std::vector<std::string>& dedup_keys);

}  // namespace dedupref
}  // namespace relational
}  // namespace piye

#endif  // PIYE_TESTS_REFERENCE_DEDUPREF_H_
