// Experiment abl-query-cluster — Section 4's cluster-matching design choice:
// decide preservation techniques by analyzing only *query features*
// (option 2) instead of executing every query and analyzing its results
// (option 1). Reports classification accuracy of the nearest-centroid
// cluster store on a labeled pool of generated queries, plus the decision
// latency of both options.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "common/rng.h"
#include "reference/sql_tables.h"
#include "source/query_cluster.h"

using namespace piye;
using source::BreachClass;
using source::ClusterStore;
using source::QueryFeatures;

namespace {

struct LabeledQuery {
  relational::SelectStatement stmt;
  BreachClass truth;
  /// Sets the feature vector's small-LIMIT slot, which no SQL statement
  /// can set (the grammar has no LIMIT): the attribute-disclosure probes
  /// keep the shape the default exemplars were trained on.
  bool small_limit = false;
};

QueryFeatures FeaturesOf(const LabeledQuery& lq) {
  QueryFeatures f = QueryFeatures::Extract(lq.stmt);
  if (lq.small_limit) f.v[7] = 1.0;
  return f;
}

// Generates queries of the four canonical breach shapes with feature noise.
std::vector<LabeledQuery> MakePool(size_t per_class, Rng* rng) {
  std::vector<LabeledQuery> pool;
  auto sql = [](const std::string& s) { return *relational::ParseSql(s); };
  for (size_t i = 0; i < per_class; ++i) {
    // Identity disclosure: row-level selects of a handful of columns with a
    // couple of predicates.
    {
      std::string q = "SELECT c1, c2, c3";
      if (rng->NextBernoulli(0.5)) q += ", c4";
      q += " FROM t WHERE a = 1";
      if (rng->NextBernoulli(0.7)) q += " AND b = 2";
      pool.push_back({sql(q), BreachClass::kIdentityDisclosure});
    }
    // Attribute disclosure: narrow probes with many predicates + small limit.
    {
      std::string q = "SELECT s FROM t WHERE a = 1 AND b = 2 AND c = 3";
      if (rng->NextBernoulli(0.5)) q += " AND d = 4";
      rng->NextBounded(4);  // the limit's draw, kept so later draws are unchanged
      pool.push_back({sql(q), BreachClass::kAttributeDisclosure, /*small_limit=*/true});
    }
    // Aggregate inference: grouped statistics.
    {
      std::string q = "SELECT g, AVG(v)";
      if (rng->NextBernoulli(0.5)) q += ", STDDEV(v)";
      q += " FROM t";
      if (rng->NextBernoulli(0.3)) q += " WHERE a = 1";
      q += " GROUP BY g";
      pool.push_back({sql(q), BreachClass::kAggregateInference});
    }
    // Linkage attack: wide unfiltered dumps.
    {
      std::string q = "SELECT c1, c2, c3, c4, c5, c6, c7";
      if (rng->NextBernoulli(0.5)) q += ", c8, c9";
      q += " FROM t";
      pool.push_back({sql(q), BreachClass::kLinkageAttack});
    }
  }
  return pool;
}

void AccuracyReport() {
  Rng rng(99);
  const auto pool = MakePool(50, &rng);
  const ClusterStore store = ClusterStore::Default();
  size_t correct = 0;
  std::map<BreachClass, std::pair<size_t, size_t>> per_class;  // correct/total
  for (const auto& lq : pool) {
    const auto* cluster = store.Map(FeaturesOf(lq));
    const bool ok = cluster != nullptr && cluster->breach == lq.truth;
    correct += ok ? 1 : 0;
    auto& [c, t] = per_class[lq.truth];
    c += ok ? 1 : 0;
    ++t;
  }
  std::printf("--- Cluster matching accuracy on %zu labeled queries ---\n",
              pool.size());
  for (const auto& [breach, ct] : per_class) {
    std::printf("%-24s %zu/%zu\n", source::BreachClassToString(breach), ct.first,
                ct.second);
  }
  std::printf("overall: %.1f%%\n\n",
              100.0 * static_cast<double>(correct) / static_cast<double>(pool.size()));
}

// Option 2: decide by features alone.
void BM_DecideByFeatures(benchmark::State& state) {
  Rng rng(1);
  const auto pool = MakePool(25, &rng);
  const ClusterStore store = ClusterStore::Default();
  size_t i = 0;
  for (auto _ : state) {
    const auto* c = store.Map(FeaturesOf(pool[i % pool.size()]));
    benchmark::DoNotOptimize(c);
    ++i;
  }
}
BENCHMARK(BM_DecideByFeatures)->Unit(benchmark::kNanosecond);

// Option 1: execute the query first, then analyze its results.
void BM_DecideByExecution(benchmark::State& state) {
  Rng rng(1);
  relational::Table t(relational::Schema{
      relational::Column{"g", relational::ColumnType::kString},
      relational::Column{"v", relational::ColumnType::kDouble},
      relational::Column{"a", relational::ColumnType::kInt64}});
  for (int i = 0; i < 20000; ++i) {
    t.AppendRowUnchecked({relational::Value::Str("g" + std::to_string(i % 9)),
                          relational::Value::Real(rng.NextUniform(0, 100)),
                          relational::Value::Int(i % 5)});
  }
  const relational::sqlref::Tables tables{{"t", std::move(t)}};
  auto stmt = relational::ParseSql("SELECT g, AVG(v) FROM t WHERE a = 1 GROUP BY g");
  for (auto _ : state) {
    auto result = relational::sqlref::Execute(tables, *stmt);
    // "Analyze the query results": class-size statistics over the output.
    size_t rows = result.ok() ? result->num_rows() : 0;
    benchmark::DoNotOptimize(rows);
  }
}
BENCHMARK(BM_DecideByExecution)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  AccuracyReport();
  std::printf("Decision latency: features-only vs execute-and-analyze "
              "(the paper's option 2 vs option 1):\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
