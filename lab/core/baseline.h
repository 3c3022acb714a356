#ifndef PIYE_CORE_BASELINE_H_
#define PIYE_CORE_BASELINE_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "relational/table.h"
#include "source/remote_source.h"

namespace piye {
namespace core {

/// The comparator the benchmarks measure PRIVATE-IYE against: a traditional
/// data-integration system with access control but *no privacy layer* — it
/// reads every source's raw table (authorized access!) and publishes exact
/// integrated aggregates. This is the world of Example 1, where the
/// published tables let the snooping HMO run its NLP inference.
class NaiveIntegrator {
 public:
  /// Publishes exact per-group aggregates over the union of the sources'
  /// raw tables (schemas must match) — e.g. the mean/σ compliance per test
  /// across HMOs of Figure 1(a).
  struct PublishedRow {
    std::string group;
    double mean = 0.0;
    double stddev = 0.0;
    size_t count = 0;
  };
  static Result<std::vector<PublishedRow>> PublishGroupedAggregates(
      const std::vector<const source::RemoteSource*>& sources,
      const std::string& group_column, const std::string& value_column);
};

}  // namespace core
}  // namespace piye

#endif  // PIYE_CORE_BASELINE_H_
