#ifndef PIYE_MEDIATOR_RESULT_INTEGRATOR_H_
#define PIYE_MEDIATOR_RESULT_INTEGRATOR_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "match/mediated_schema.h"
#include "relational/table.h"

namespace piye {
namespace mediator {

/// The Result Integrator of Figure 2(b): renames the columns of the
/// sources' result tables to mediated attribute names, pads attributes a
/// source could not deliver with NULLs, unions everything, and removes
/// duplicates — by the key attributes the caller names, by whole-row
/// identity otherwise. Dedup is plaintext (no PSI): cells are compared
/// after the union's type coercion with relational::FirstOccurrences'
/// typed equality (NULL equals only NULL, INT64/BOOL by value, DOUBLE by
/// bit pattern with one NaN per sign, STRING by bytes).
class ResultIntegrator {
 public:
  explicit ResultIntegrator(const match::MediatedSchema* schema) : schema_(schema) {}

  struct SourceResult {
    std::string owner;
    relational::Table table;  ///< columns already mediated-named
  };

  /// Takes `owner`'s result table and renames its columns to mediated
  /// attribute names using the schema's (source column -> attribute)
  /// mappings. Aggregate aliases of the form `func_column` are renamed to
  /// `func_attribute`.
  SourceResult FromSource(std::string owner, relational::Table table) const;

  /// Unions the per-source tables over the union of their columns (missing
  /// columns padded with NULL), appending a `_source` provenance column,
  /// then deduplicates. `dedup_keys` empty ⇒ whole-row distinct (ignoring
  /// provenance).
  Result<relational::Table> Integrate(const std::vector<SourceResult>& results,
                                      const std::vector<std::string>& dedup_keys) const;

 private:
  const match::MediatedSchema* schema_;
};

}  // namespace mediator
}  // namespace piye

#endif  // PIYE_MEDIATOR_RESULT_INTEGRATOR_H_
