#include "source/query_cluster.h"

#include <cmath>
#include <limits>
#include <map>

namespace piye {
namespace source {

QueryFeatures QueryFeatures::Extract(const relational::SelectStatement& stmt) {
  QueryFeatures f;
  size_t num_aggs = 0, num_cols = 0;
  for (const auto& item : stmt.items) {
    if (item.kind == relational::SelectItem::Kind::kAggregate) {
      ++num_aggs;
    } else {
      ++num_cols;
    }
  }
  f.v[0] = num_aggs > 0 ? 1.0 : 0.0;
  f.v[1] = static_cast<double>(num_aggs);
  f.v[2] = stmt.where == nullptr ? 0.0 : static_cast<double>(stmt.where->NodeCount());
  f.v[3] = num_aggs == 0 ? 1.0 : 0.0;
  f.v[4] = static_cast<double>(num_cols + num_aggs);
  f.v[5] = stmt.group_by.empty() ? 0.0 : 1.0;
  f.v[6] = static_cast<double>(stmt.group_by.size());
  return f;
}

double QueryFeatures::DistanceTo(const QueryFeatures& other) const {
  // Categorical features (aggregate?, row-level?, small-limit slot) outweigh
  // the count features: an aggregate query is never in the same breach class as
  // a row-level one, however similar their predicate counts.
  static constexpr double kWeights[kDims] = {3.0, 1.0, 1.0, 3.0,
                                             1.0, 1.0, 1.0, 2.0};
  double acc = 0.0;
  for (size_t i = 0; i < kDims; ++i) {
    const double d = (v[i] - other.v[i]) * kWeights[i];
    acc += d * d;
  }
  return std::sqrt(acc);
}

void ClusterStore::AddExemplar(const QueryFeatures& features, BreachClass breach,
                               std::vector<Technique> techniques) {
  exemplars_.push_back({features, breach, std::move(techniques)});
}

void ClusterStore::Train() {
  clusters_.clear();
  std::map<BreachClass, std::vector<const Exemplar*>> by_class;
  for (const auto& e : exemplars_) by_class[e.breach].push_back(&e);
  for (const auto& [breach, members] : by_class) {
    QueryCluster cluster;
    cluster.breach = breach;
    cluster.label = BreachClassToString(breach);
    cluster.support = members.size();
    for (const Exemplar* e : members) {
      for (size_t i = 0; i < QueryFeatures::kDims; ++i) {
        cluster.centroid.v[i] += e->features.v[i];
      }
    }
    for (size_t i = 0; i < QueryFeatures::kDims; ++i) {
      cluster.centroid.v[i] /= static_cast<double>(members.size());
    }
    // Techniques: union of member technique sets, first-seen order.
    for (const Exemplar* e : members) {
      for (Technique t : e->techniques) {
        bool present = false;
        for (Technique u : cluster.techniques) present = present || u == t;
        if (!present) cluster.techniques.push_back(t);
      }
    }
    clusters_.push_back(std::move(cluster));
  }
}

const QueryCluster* ClusterStore::Map(const QueryFeatures& features) const {
  // 1-NN over the exemplars decides the breach class (classes are not
  // convex in feature space — e.g. identity probes span both low- and
  // high-predicate shapes); the matching class cluster carries the
  // technique set.
  const Exemplar* nearest = nullptr;
  double best_dist = std::numeric_limits<double>::infinity();
  for (const auto& e : exemplars_) {
    const double d = features.DistanceTo(e.features);
    if (d < best_dist) {
      best_dist = d;
      nearest = &e;
    }
  }
  if (nearest == nullptr) return nullptr;
  for (const auto& c : clusters_) {
    if (c.breach == nearest->breach) return &c;
  }
  return nullptr;
}

ClusterStore ClusterStore::Default() {
  ClusterStore store;
  auto features = [](double agg, double naggs, double preds, double rows,
                     double cols, double grouped, double groups, double lim) {
    QueryFeatures f;
    f.v = {agg, naggs, preds, rows, cols, grouped, groups, lim};
    return f;
  };
  // Row-level selections of identifying columns → identity disclosure.
  // (Unbounded result sets, moderate predicates.)
  store.AddExemplar(features(0, 0, 3, 1, 4, 0, 0, 0), BreachClass::kIdentityDisclosure,
                    {Technique::kGeneralization, Technique::kSuppression});
  store.AddExemplar(features(0, 0, 1, 1, 6, 0, 0, 0), BreachClass::kIdentityDisclosure,
                    {Technique::kGeneralization, Technique::kSuppression});
  store.AddExemplar(features(0, 0, 7, 1, 3, 0, 0, 0), BreachClass::kIdentityDisclosure,
                    {Technique::kGeneralization, Technique::kSuppression});
  // Narrow row-level probes (selective predicates, few columns) → attribute
  // disclosure. Their small-limit coordinate is 1, which no extracted
  // fragment has, so they sit at least 2.0 further from every query than
  // their other coordinates say.
  store.AddExemplar(features(0, 0, 7, 1, 2, 0, 0, 1), BreachClass::kAttributeDisclosure,
                    {Technique::kSuppression, Technique::kGeneralization});
  store.AddExemplar(features(0, 0, 5, 1, 1, 0, 0, 1), BreachClass::kAttributeDisclosure,
                    {Technique::kSuppression, Technique::kGeneralization});
  // Aggregates, especially grouped ones → aggregate inference (Figure 1).
  store.AddExemplar(features(1, 1, 0, 0, 1, 0, 0, 0), BreachClass::kAggregateInference,
                    {Technique::kRounding, Technique::kQuerySetRestriction});
  store.AddExemplar(features(1, 2, 2, 0, 3, 1, 1, 0), BreachClass::kAggregateInference,
                    {Technique::kRounding, Technique::kQuerySetRestriction,
                     Technique::kNoiseAddition});
  // Wide unfiltered row-level dumps → linkage attacks.
  store.AddExemplar(features(0, 0, 0, 1, 8, 0, 0, 0), BreachClass::kLinkageAttack,
                    {Technique::kGeneralization, Technique::kSuppression});
  store.AddExemplar(features(0, 0, 1, 1, 10, 0, 0, 0), BreachClass::kLinkageAttack,
                    {Technique::kGeneralization, Technique::kSuppression});
  store.Train();
  return store;
}

}  // namespace source
}  // namespace piye
