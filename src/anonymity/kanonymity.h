#ifndef PIYE_ANONYMITY_KANONYMITY_H_
#define PIYE_ANONYMITY_KANONYMITY_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "anonymity/hierarchy.h"
#include "relational/table.h"

namespace piye {
namespace anonymity {

/// Outcome of an anonymization run.
struct AnonymizationResult {
  relational::Table table;      ///< QI columns replaced by generalized STRINGs
  std::vector<size_t> levels;   ///< chosen generalization level per QI
  size_t suppressed_rows = 0;   ///< rows removed to reach k
};

/// Utility metrics over an anonymized table's equivalence classes.
struct AnonymityMetrics {
  size_t num_classes = 0;
  size_t min_class_size = 0;
  double avg_class_size = 0.0;
  /// Discernibility metric: sum over classes of |class|^2 (suppressed rows
  /// cost |table| each).
  double discernibility = 0.0;
};

/// Groups rows by the given (already generalized) QI columns and computes
/// class-size metrics.
Result<AnonymityMetrics> ComputeMetrics(const relational::Table& table,
                                        const std::vector<std::string>& qi_columns,
                                        size_t suppressed_rows = 0);

/// True if every equivalence class over `qi_columns` has size >= k.
Result<bool> IsKAnonymous(const relational::Table& table,
                          const std::vector<std::string>& qi_columns, size_t k);

/// True if additionally every class contains >= l distinct values of
/// `sensitive_column` (distinct l-diversity, Machanavajjhala-style check).
Result<bool> IsLDiverse(const relational::Table& table,
                        const std::vector<std::string>& qi_columns,
                        const std::string& sensitive_column, size_t l);

/// Samarati-style full-domain generalization: searches level vectors of the
/// generalization lattice in order of increasing total height and returns
/// the first (minimal-height, tie-broken lexicographically) vector that
/// makes the table k-anonymous after suppressing at most `max_suppression`
/// outlier rows.
class KAnonymizer {
 public:
  KAnonymizer(std::vector<QuasiIdentifier> qis, size_t k, size_t max_suppression = 0)
      : qis_(std::move(qis)), k_(k), max_suppression_(max_suppression) {}

  /// Anonymizes `input`. Fails with kPrivacyViolation if even full
  /// suppression of the QIs cannot reach k (i.e. |table| < k).
  Result<AnonymizationResult> Anonymize(const relational::Table& input) const;

  /// Applies a specific level vector (exposed for the lattice-sweep bench).
  Result<AnonymizationResult> ApplyLevels(const relational::Table& input,
                                          const std::vector<size_t>& levels) const;

  /// Normalized generalization information loss of a level vector: mean of
  /// level/max_level over QIs (the "GenILoss" precision metric).
  double GeneralizationLoss(const std::vector<size_t>& levels) const;

  size_t k() const { return k_; }

 private:
  std::vector<QuasiIdentifier> qis_;
  size_t k_;
  size_t max_suppression_;
};

/// Mondrian multidimensional partitioning (LeFevre et al.) over *numeric*
/// quasi-identifiers: recursively median-splits the partition with relaxed
/// multidimensional cuts while each side keeps >= k rows, then releases each
/// partition with its bounding ranges.
class Mondrian {
 public:
  Mondrian(std::vector<std::string> numeric_qi_columns, size_t k)
      : qi_(std::move(numeric_qi_columns)), k_(k) {}

  /// Returns the anonymized table: QI columns become "lo..hi" STRING ranges.
  Result<relational::Table> Anonymize(const relational::Table& input) const;

 private:
  std::vector<std::string> qi_;
  size_t k_;
};

}  // namespace anonymity
}  // namespace piye

#endif  // PIYE_ANONYMITY_KANONYMITY_H_
