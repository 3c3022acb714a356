#include "match/schema_matcher.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <set>

#include "common/macros.h"
#include "common/sha256.h"
#include "common/strings.h"

namespace piye {
namespace match {

Result<ColumnSketch> ColumnSketch::Build(const ColumnRef& ref,
                                         const relational::Table& table,
                                         const std::string& shared_key,
                                         bool name_public, size_t max_sample) {
  PIYE_ASSIGN_OR_RETURN(size_t col, table.schema().IndexOf(ref.column));
  ColumnSketch sketch;
  sketch.ref = ref;
  sketch.name_public = name_public;
  if (!name_public) {
    sketch.ref.column =
        "h_" + Sha256::ToHex(Sha256::Hash(shared_key + "|" + ref.column)).substr(0, 12);
  }
  sketch.type = table.schema().column(col).type;

  std::set<std::string> distinct;
  double total_len = 0.0, digits = 0.0, alphas = 0.0, chars = 0.0;
  double num_sum = 0.0, num_sum_sq = 0.0;
  size_t num_count = 0, non_null = 0;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    const relational::Value v = table.Cell(r, col);
    if (v.is_null()) continue;
    ++non_null;
    const std::string s = v.ToDisplayString();
    distinct.insert(s);
    total_len += static_cast<double>(s.size());
    for (char c : s) {
      chars += 1.0;
      if (std::isdigit(static_cast<unsigned char>(c))) digits += 1.0;
      if (std::isalpha(static_cast<unsigned char>(c))) alphas += 1.0;
    }
    if (v.is_numeric()) {
      const double x = v.AsDouble();
      num_sum += x;
      num_sum_sq += x * x;
      ++num_count;
    }
  }
  if (non_null > 0) {
    sketch.mean_length = total_len / static_cast<double>(non_null);
    sketch.distinct_ratio =
        static_cast<double>(distinct.size()) / static_cast<double>(non_null);
  }
  if (chars > 0) {
    sketch.digit_ratio = digits / chars;
    sketch.alpha_ratio = alphas / chars;
  }
  if (num_count > 0) {
    const double n = static_cast<double>(num_count);
    sketch.numeric_mean = num_sum / n;
    sketch.numeric_stddev =
        std::sqrt(std::max(0.0, num_sum_sq / n - sketch.numeric_mean * sketch.numeric_mean));
  }
  linkage::BloomFilter filter(512, 4);
  size_t taken = 0;
  for (const auto& s : distinct) {
    if (taken >= max_sample) break;
    filter.Insert(shared_key + "|" + s);
    ++taken;
  }
  sketch.value_filter = std::move(filter);
  return sketch;
}

double ColumnSketch::InstanceSimilarity(const ColumnSketch& other) const {
  // Feature closeness: 1 - normalized absolute difference, averaged.
  auto closeness = [](double a, double b, double scale) {
    if (scale <= 0.0) return a == b ? 1.0 : 0.0;
    return std::max(0.0, 1.0 - std::fabs(a - b) / scale);
  };
  double score = 0.0;
  double weight = 0.0;
  score += closeness(mean_length, other.mean_length, 10.0);
  weight += 1.0;
  score += closeness(digit_ratio, other.digit_ratio, 1.0);
  weight += 1.0;
  score += closeness(alpha_ratio, other.alpha_ratio, 1.0);
  weight += 1.0;
  score += closeness(distinct_ratio, other.distinct_ratio, 1.0);
  weight += 1.0;
  score += type == other.type ? 1.0 : 0.0;
  weight += 1.0;
  const bool numeric = type == relational::ColumnType::kInt64 ||
                       type == relational::ColumnType::kDouble;
  if (numeric && type == other.type) {
    const double scale =
        std::max({std::fabs(numeric_mean), std::fabs(other.numeric_mean), 1.0});
    score += closeness(numeric_mean, other.numeric_mean, scale);
    weight += 1.0;
  }
  if (value_filter.has_value() && other.value_filter.has_value()) {
    // Value overlap is the strongest instance signal — double weight.
    score += 2.0 * linkage::BloomFilter::DiceSimilarity(*value_filter,
                                                        *other.value_filter);
    weight += 2.0;
  }
  return weight == 0.0 ? 0.0 : score / weight;
}

double SchemaMatcher::Score(const ColumnSketch& a, const ColumnSketch& b) const {
  const double instance = a.InstanceSimilarity(b);
  if (!a.name_public || !b.name_public) {
    return instance;  // name signal unavailable; all weight on instances
  }
  const double name = names_.NameSimilarity(a.ref.column, b.ref.column);
  const double total_w = options_.name_weight + options_.instance_weight;
  if (total_w <= 0.0) return 0.0;
  return (options_.name_weight * name + options_.instance_weight * instance) / total_w;
}

std::vector<ColumnMatch> SchemaMatcher::MatchSketches(
    const std::vector<ColumnSketch>& a, const std::vector<ColumnSketch>& b) const {
  struct Candidate {
    double score;
    size_t i, j;
  };
  std::vector<Candidate> candidates;
  for (size_t i = 0; i < a.size(); ++i) {
    for (size_t j = 0; j < b.size(); ++j) {
      const double s = Score(a[i], b[j]);
      if (s >= options_.threshold) candidates.push_back({s, i, j});
    }
  }
  std::sort(candidates.begin(), candidates.end(), [](const Candidate& x, const Candidate& y) {
    if (x.score != y.score) return x.score > y.score;
    return std::tie(x.i, x.j) < std::tie(y.i, y.j);
  });
  // Greedy one-to-one assignment by descending score.
  std::vector<bool> used_a(a.size(), false), used_b(b.size(), false);
  std::vector<ColumnMatch> out;
  for (const Candidate& c : candidates) {
    if (used_a[c.i] || used_b[c.j]) continue;
    used_a[c.i] = true;
    used_b[c.j] = true;
    out.push_back({a[c.i].ref, b[c.j].ref, c.score});
  }
  return out;
}

}  // namespace match
}  // namespace piye
