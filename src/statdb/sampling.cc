#include "statdb/sampling.h"

#include "common/macros.h"
#include "common/sha256.h"
#include "common/strings.h"

namespace piye {
namespace statdb {

RandomSampleQueries::RandomSampleQueries(std::string key_column, double sampling_rate,
                                         uint64_t seed)
    : key_column_(std::move(key_column)), rate_(sampling_rate), seed_(seed) {}

bool RandomSampleQueries::Includes(const std::string& record_key,
                                   const AggregateQuery& query) const {
  const std::string material = strings::Format("%llu|", (unsigned long long)seed_) +
                               record_key + "|" + query.Canonical();
  const uint64_t h = Sha256::Hash64(material);
  // Map the top 53 bits to [0,1).
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  return u < rate_;
}

Result<double> RandomSampleQueries::Answer(const AggregateQuery& query,
                                           const relational::Table& data) const {
  if (rate_ <= 0.0 || rate_ > 1.0) {
    return Status::InvalidArgument("sampling rate must be in (0,1]");
  }
  PIYE_ASSIGN_OR_RETURN(size_t key_col, data.schema().IndexOf(key_column_));
  PIYE_ASSIGN_OR_RETURN(std::vector<size_t> rows, QuerySet(query, data));
  const relational::ColumnVector& keys = data.col(key_col);
  std::vector<size_t> sampled;
  for (size_t r : rows) {
    if (Includes(keys.ValueAt(r).ToDisplayString(), query)) sampled.push_back(r);
  }
  PIYE_ASSIGN_OR_RETURN(double value, EvaluateAggregate(query, data, sampled));
  // Rescale extensive statistics so the estimate is unbiased.
  if (query.func == relational::AggFunc::kSum ||
      query.func == relational::AggFunc::kCount) {
    value /= rate_;
  }
  return value;
}

}  // namespace statdb
}  // namespace piye
