#include "match/mediated_schema.h"

#include <algorithm>
#include <map>
#include <numeric>

#include "common/strings.h"

namespace piye {
namespace match {

const MediatedAttribute* MediatedSchema::FindByName(
    const std::string& name, const xml::LooseNameMatcher& matcher,
    double threshold) const {
  const MediatedAttribute* best = nullptr;
  double best_score = threshold;
  for (const auto& attr : attributes_) {
    const double s = matcher.NameSimilarity(name, attr.name);
    if (s >= best_score) {
      best_score = s;
      best = &attr;
    }
  }
  return best;
}

std::vector<ColumnRef> MediatedSchema::MappingsAt(const std::string& attribute,
                                                  const std::string& source) const {
  std::vector<ColumnRef> out;
  for (const auto& attr : attributes_) {
    if (attr.name != attribute) continue;
    for (const auto& m : attr.mappings) {
      if (source.empty() || m.source == source) out.push_back(m);
    }
  }
  return out;
}

namespace {

class UnionFind {
 public:
  explicit UnionFind(size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  size_t Find(size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Merge(size_t a, size_t b) { parent_[Find(a)] = Find(b); }

 private:
  std::vector<size_t> parent_;
};

}  // namespace

Result<MediatedSchema> MediatedSchemaGenerator::Generate(
    const std::vector<ColumnSketch>& sketches) const {
  UnionFind uf(sketches.size());
  // Match sketches across different sources pairwise; same-source columns
  // are never merged (a source's own columns are distinct attributes).
  for (size_t i = 0; i < sketches.size(); ++i) {
    for (size_t j = i + 1; j < sketches.size(); ++j) {
      if (sketches[i].ref.source == sketches[j].ref.source) continue;
      const double s = matcher_.Score(sketches[i], sketches[j]);
      if (s >= matcher_.options().threshold) uf.Merge(i, j);
    }
  }
  std::map<size_t, std::vector<size_t>> clusters;
  for (size_t i = 0; i < sketches.size(); ++i) clusters[uf.Find(i)].push_back(i);

  MediatedSchema schema;
  size_t synthetic = 0;
  for (const auto& [root, members] : clusters) {
    (void)root;
    MediatedAttribute attr;
    // Canonical name: the most common *public* column name in the cluster.
    std::map<std::string, size_t> votes;
    for (size_t m : members) {
      if (sketches[m].name_public) ++votes[sketches[m].ref.column];
    }
    if (votes.empty()) {
      attr.name = strings::Format("attr_%zu", synthetic++);
      attr.partial = true;
    } else {
      attr.name = std::max_element(votes.begin(), votes.end(),
                                   [](const auto& a, const auto& b) {
                                     if (a.second != b.second) return a.second < b.second;
                                     return a.first > b.first;
                                   })
                      ->first;
      // The summary is partial if any member hides its name (the requester
      // cannot see the full lineage).
      for (size_t m : members) {
        if (!sketches[m].name_public) attr.partial = true;
      }
    }
    attr.type = sketches[members[0]].type;
    for (size_t m : members) attr.mappings.push_back(sketches[m].ref);
    std::sort(attr.mappings.begin(), attr.mappings.end());
    schema.AddAttribute(std::move(attr));
  }
  return schema;
}

}  // namespace match
}  // namespace piye
