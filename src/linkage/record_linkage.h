#ifndef PIYE_LINKAGE_RECORD_LINKAGE_H_
#define PIYE_LINKAGE_RECORD_LINKAGE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "linkage/bloom.h"
#include "linkage/psi.h"
#include "relational/table.h"

namespace piye {
namespace linkage {

/// A linked pair of row indices (left table row, right table row).
struct LinkedPair {
  size_t left_row;
  size_t right_row;
  double score;  ///< 1.0 for exact protocols, Dice score for approximate
};

/// Privacy-preserving record linkage over relational tables — the machinery
/// behind the Result Integrator's duplicate elimination (Section 5: "object
/// matchings have to be done without revealing the origins of the sources or
/// the real world origins of the entities").
class PrivateRecordLinkage {
 public:
  /// `key_columns` are concatenated (with '\x1f' separators) into the
  /// linkage key of each record.
  PrivateRecordLinkage(std::vector<std::string> key_columns,
                       std::unique_ptr<PsiProtocol> protocol)
      : key_columns_(std::move(key_columns)), protocol_(std::move(protocol)) {}

  /// Exact linkage via the configured PSI protocol: only records whose keys
  /// are in the private intersection are paired.
  Result<std::vector<LinkedPair>> Link(const relational::Table& left,
                                       const relational::Table& right) const;

  /// Approximate linkage via Bloom-encoded keys and a Dice threshold —
  /// tolerant of typos and formatting drift across sources.
  Result<std::vector<LinkedPair>> LinkApproximate(const relational::Table& left,
                                                  const relational::Table& right,
                                                  const BloomEncoder& encoder,
                                                  double dice_threshold) const;

  /// Builds the linkage key of a row.
  Result<std::string> KeyOf(const relational::Table& table, size_t row) const;

  const PsiProtocol* protocol() const { return protocol_.get(); }

 private:
  std::vector<std::string> key_columns_;
  std::unique_ptr<PsiProtocol> protocol_;
};

/// Removes duplicate records from `input`: the first row of each distinct
/// value of `key_columns` is kept, in row order. Keys are compared in
/// plaintext with relational::FirstOccurrences' typed equality (no PSI).
Result<relational::Table> DeduplicateByKey(const relational::Table& input,
                                           const std::vector<std::string>& key_columns);

}  // namespace linkage
}  // namespace piye

#endif  // PIYE_LINKAGE_RECORD_LINKAGE_H_
