#ifndef PIYE_MATCH_SCHEMA_MATCHER_H_
#define PIYE_MATCH_SCHEMA_MATCHER_H_

#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "linkage/bloom.h"
#include "relational/table.h"
#include "xml/loose_name.h"

namespace piye {
namespace match {

/// A fully qualified column of some source.
struct ColumnRef {
  std::string source;
  std::string table;
  std::string column;

  std::string ToString() const { return source + "." + table + "." + column; }
  bool operator<(const ColumnRef& o) const {
    return std::tie(source, table, column) < std::tie(o.source, o.table, o.column);
  }
  bool operator==(const ColumnRef& o) const {
    return source == o.source && table == o.table && column == o.column;
  }
};

/// One attribute correspondence produced by a matcher.
struct ColumnMatch {
  ColumnRef a;
  ColumnRef b;
  double score = 0.0;
};

/// Content statistics of a column that can be shared without revealing
/// values — plus a keyed Bloom filter of (a sample of) the hashed values.
/// This is the artifact exchanged by privacy-preserving schema matching: it
/// exposes neither the schema element's values nor (optionally) its name.
struct ColumnSketch {
  ColumnRef ref;
  bool name_public = true;  ///< false ⇒ `ref.column` is a salted hash tag
  relational::ColumnType type = relational::ColumnType::kString;

  // Instance features.
  double mean_length = 0.0;
  double digit_ratio = 0.0;
  double alpha_ratio = 0.0;
  double distinct_ratio = 0.0;
  double numeric_mean = 0.0;
  double numeric_stddev = 0.0;

  /// Keyed Bloom filter over (up to `max_sample`) distinct values.
  std::optional<linkage::BloomFilter> value_filter;

  /// Builds a sketch of `column` in `table`. `shared_key` keys the value
  /// filter; pass `name_public=false` to replace the column name with a
  /// salted hash (sources whose policy hides the schema).
  static Result<ColumnSketch> Build(const ColumnRef& ref,
                                    const relational::Table& table,
                                    const std::string& shared_key, bool name_public,
                                    size_t max_sample = 256);

  /// Similarity of instance features + value-filter overlap in [0,1].
  double InstanceSimilarity(const ColumnSketch& other) const;
};

/// Learning-based schema matcher in the spirit the paper cites from Clifton
/// et al. [14]: combines a name matcher (tokens/acronyms/synonyms — reusing
/// the loose name similarity) with an instance-feature matcher, under a
/// configurable weighting. Stable-marriage-style greedy one-to-one
/// assignment keeps the correspondences consistent.
class SchemaMatcher {
 public:
  struct Options {
    double name_weight = 0.5;
    double instance_weight = 0.5;
    double threshold = 0.6;  ///< minimum combined score to emit a match
  };

  SchemaMatcher(Options options, xml::LooseNameMatcher name_matcher)
      : options_(options), names_(std::move(name_matcher)) {}

  /// Privacy-preserving matching over sketches only. Hidden names
  /// contribute no name score (weight shifts to instance features).
  std::vector<ColumnMatch> MatchSketches(const std::vector<ColumnSketch>& a,
                                         const std::vector<ColumnSketch>& b) const;

  /// Pairwise combined score of two sketches.
  double Score(const ColumnSketch& a, const ColumnSketch& b) const;

  const Options& options() const { return options_; }

 private:
  Options options_;
  xml::LooseNameMatcher names_;
};

}  // namespace match
}  // namespace piye

#endif  // PIYE_MATCH_SCHEMA_MATCHER_H_
