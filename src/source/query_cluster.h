#ifndef PIYE_SOURCE_QUERY_CLUSTER_H_
#define PIYE_SOURCE_QUERY_CLUSTER_H_

#include <array>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "relational/sql.h"
#include "source/preservation.h"

namespace piye {
namespace source {

/// The feature vector the Cluster Matching module extracts from a query
/// *without executing it* (Section 4's argued-for alternative (2): "analyze
/// only the features of the query ... to determine the characteristics of
/// the query results").
struct QueryFeatures {
  static constexpr size_t kDims = 8;

  /// [0] aggregate query? [1] #aggregate functions [2] #predicate nodes
  /// [3] returns individual rows? [4] #output columns [5] grouped?
  /// [6] #group-by columns [7] small-LIMIT slot: Extract leaves it 0,
  /// since PIQL has no row limit. The slot, its weight and the exemplars
  /// that set it stay so that every distance, hence every cluster decision,
  /// is what the matcher was trained on (ROADMAP item 5 reworks the
  /// attribute-disclosure features).
  std::array<double, kDims> v{};

  static QueryFeatures Extract(const relational::SelectStatement& stmt);

  double DistanceTo(const QueryFeatures& other) const;
};

/// One cluster of queries sharing a breach profile, hence sharing
/// preservation techniques.
struct QueryCluster {
  std::string label;
  QueryFeatures centroid;
  BreachClass breach = BreachClass::kNone;
  std::vector<Technique> techniques;
  size_t support = 0;  ///< number of training exemplars behind the centroid
};

/// The Cluster Repository + Cluster Matching of Figure 2(a): trained from
/// labeled exemplar queries (mined offline from the raw data, per the
/// paper), it maps an incoming rewritten query to the nearest cluster and
/// hands its technique set to the preservation module.
class ClusterStore {
 public:
  /// Adds a labeled training query.
  void AddExemplar(const QueryFeatures& features, BreachClass breach,
                   std::vector<Technique> techniques);

  /// Builds one centroid per breach class from the exemplars (nearest-
  /// centroid classification — adequate for the well-separated feature
  /// space; see also KMeans below for the unsupervised variant).
  void Train();

  /// Nearest cluster, or nullptr when untrained.
  const QueryCluster* Map(const QueryFeatures& features) const;

  const std::vector<QueryCluster>& clusters() const { return clusters_; }

  /// A store pre-trained on canonical exemplars of the four breach classes.
  static ClusterStore Default();

 private:
  struct Exemplar {
    QueryFeatures features;
    BreachClass breach;
    std::vector<Technique> techniques;
  };

  std::vector<Exemplar> exemplars_;
  std::vector<QueryCluster> clusters_;
};

}  // namespace source
}  // namespace piye

#endif  // PIYE_SOURCE_QUERY_CLUSTER_H_
