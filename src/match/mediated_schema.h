#ifndef PIYE_MATCH_MEDIATED_SCHEMA_H_
#define PIYE_MATCH_MEDIATED_SCHEMA_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "match/schema_matcher.h"
#include "xml/loose_name.h"

namespace piye {
namespace match {

/// One attribute of the mediated schema: a canonical name plus the source
/// columns it unifies. When every contributing source hides its column name,
/// the attribute gets a synthetic name and is flagged partial — the paper's
/// "partial structural summary".
struct MediatedAttribute {
  std::string name;
  bool partial = false;  ///< true when the canonical name is synthetic
  relational::ColumnType type = relational::ColumnType::kString;
  std::vector<ColumnRef> mappings;
};

/// The mediated schema: the requester's query-formulation guide.
class MediatedSchema {
 public:
  const std::vector<MediatedAttribute>& attributes() const { return attributes_; }
  void AddAttribute(MediatedAttribute attr) { attributes_.push_back(std::move(attr)); }

  /// Finds an attribute by (approximate) name using the given matcher and
  /// threshold — the loose lookup behind privacy-conscious query
  /// translation.
  const MediatedAttribute* FindByName(const std::string& name,
                                      const xml::LooseNameMatcher& matcher,
                                      double threshold = 0.7) const;

  /// The source columns backing an attribute at a given source ("" = all).
  std::vector<ColumnRef> MappingsAt(const std::string& attribute,
                                    const std::string& source) const;

 private:
  std::vector<MediatedAttribute> attributes_;
};

/// Builds a mediated schema from per-source column sketches by clustering
/// pairwise matches (union-find over SchemaMatcher correspondences). The
/// generator never touches raw source data — only sketches — which is what
/// makes the mediated-schema generation privacy-preserving (Section 5).
class MediatedSchemaGenerator {
 public:
  explicit MediatedSchemaGenerator(SchemaMatcher matcher)
      : matcher_(std::move(matcher)) {}

  /// `sketches` holds every exported column of every source.
  Result<MediatedSchema> Generate(const std::vector<ColumnSketch>& sketches) const;

 private:
  SchemaMatcher matcher_;
};

}  // namespace match
}  // namespace piye

#endif  // PIYE_MATCH_MEDIATED_SCHEMA_H_
