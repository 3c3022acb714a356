#include "linkage/record_linkage.h"

#include <map>
#include <set>

#include "common/macros.h"
#include "relational/dedup.h"

namespace piye {
namespace linkage {

Result<std::string> PrivateRecordLinkage::KeyOf(const relational::Table& table,
                                                size_t row) const {
  std::string key;
  for (const auto& col : key_columns_) {
    PIYE_ASSIGN_OR_RETURN(relational::Value v, table.At(row, col));
    if (!key.empty()) key += '\x1f';
    key += v.ToDisplayString();
  }
  return key;
}

Result<std::vector<LinkedPair>> PrivateRecordLinkage::Link(
    const relational::Table& left, const relational::Table& right) const {
  // Build key lists for both sides.
  std::vector<std::string> left_keys(left.num_rows());
  std::vector<std::string> right_keys(right.num_rows());
  for (size_t r = 0; r < left.num_rows(); ++r) {
    PIYE_ASSIGN_OR_RETURN(left_keys[r], KeyOf(left, r));
  }
  for (size_t r = 0; r < right.num_rows(); ++r) {
    PIYE_ASSIGN_OR_RETURN(right_keys[r], KeyOf(right, r));
  }
  PIYE_ASSIGN_OR_RETURN(std::vector<std::string> matched,
                        protocol_->Intersect(left_keys, right_keys));
  const std::set<std::string> matched_set(matched.begin(), matched.end());
  // Pair up rows whose key is in the intersection.
  std::map<std::string, std::vector<size_t>> right_by_key;
  for (size_t r = 0; r < right.num_rows(); ++r) {
    if (matched_set.count(right_keys[r]) != 0) right_by_key[right_keys[r]].push_back(r);
  }
  std::vector<LinkedPair> out;
  for (size_t l = 0; l < left.num_rows(); ++l) {
    auto it = right_by_key.find(left_keys[l]);
    if (it == right_by_key.end()) continue;
    for (size_t r : it->second) out.push_back({l, r, 1.0});
  }
  return out;
}

Result<std::vector<LinkedPair>> PrivateRecordLinkage::LinkApproximate(
    const relational::Table& left, const relational::Table& right,
    const BloomEncoder& encoder, double dice_threshold) const {
  auto encode_row = [&](const relational::Table& t, size_t row) -> Result<BloomFilter> {
    std::vector<std::string> fields;
    for (const auto& col : key_columns_) {
      PIYE_ASSIGN_OR_RETURN(relational::Value v, t.At(row, col));
      fields.push_back(v.ToDisplayString());
    }
    return encoder.Encode(fields);
  };
  std::vector<BloomFilter> left_filters, right_filters;
  left_filters.reserve(left.num_rows());
  right_filters.reserve(right.num_rows());
  for (size_t r = 0; r < left.num_rows(); ++r) {
    PIYE_ASSIGN_OR_RETURN(BloomFilter f, encode_row(left, r));
    left_filters.push_back(std::move(f));
  }
  for (size_t r = 0; r < right.num_rows(); ++r) {
    PIYE_ASSIGN_OR_RETURN(BloomFilter f, encode_row(right, r));
    right_filters.push_back(std::move(f));
  }
  std::vector<LinkedPair> out;
  for (size_t l = 0; l < left_filters.size(); ++l) {
    for (size_t r = 0; r < right_filters.size(); ++r) {
      const double dice = BloomFilter::DiceSimilarity(left_filters[l], right_filters[r]);
      if (dice >= dice_threshold) out.push_back({l, r, dice});
    }
  }
  return out;
}

Result<relational::Table> DeduplicateByKey(
    const relational::Table& input, const std::vector<std::string>& key_columns) {
  relational::KeyBlock keys{{}, input.num_rows()};
  for (const auto& col : key_columns) {
    PIYE_ASSIGN_OR_RETURN(size_t i, input.schema().IndexOf(col));
    keys.cols.push_back(&input.col(i));
  }
  return input.Gather(relational::FirstOccurrences({keys}));
}

}  // namespace linkage
}  // namespace piye
