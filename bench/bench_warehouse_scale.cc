// Experiment warehouse-scale — the warehouse read path as a performance
// object:
//
//   1. throughput sweep, 1–16 reader threads × hit-rate, sharded zero-copy
//      warehouse vs the pre-refactor baseline (one global mutex, deep-copy
//      Get) rebuilt here in-bench — the headline number is the speedup at
//      8 threads on a 100% hit workload;
//   2. hit latency for both designs (single-threaded per-op cost: the
//      baseline pays a full table copy per hit, the sharded store a
//      refcount);
//   3. single-flight coalescing on the live engine: a burst of identical
//      concurrent queries against slow sources → one federated execution,
//      the rest joined (engine.singleflight_* counters);
//   4. byte-budget eviction: fill a bounded warehouse past its budget and
//      report resident vs evicted bytes;
//   5. engine-level hit latency: `MediationEngine::Execute` answered from a
//      warm warehouse over in-process sources, 64 distinct requests per
//      client thread, at 1 and 4 threads (and BM_EngineHit).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/trace.h"
#include "core/scenario.h"
#include "mediator/engine.h"
#include "mediator/warehouse.h"
#include "relational/table.h"
#include "source/remote_source.h"

using piye::core::ClinicalScenario;
using piye::mediator::MediationEngine;
using piye::mediator::QueryOptions;
using piye::mediator::Warehouse;
using piye::source::RemoteSource;

namespace {

// The pre-refactor warehouse, reconstructed as the baseline: one global
// mutex over one map, and a Get that returns the table *by value* — every
// hit deep-copies the materialization while holding the lock.
class BaselineWarehouse {
 public:
  void Put(const std::string& fingerprint, piye::relational::Table table,
           uint64_t epoch) {
    std::lock_guard<std::mutex> lock(mu_);
    entries_[fingerprint] = Entry{std::move(table), epoch};
  }

  std::optional<piye::relational::Table> Get(const std::string& fingerprint,
                                             uint64_t current_epoch,
                                             uint64_t max_age) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(fingerprint);
    if (it == entries_.end()) return std::nullopt;
    const uint64_t age = current_epoch >= it->second.epoch
                             ? current_epoch - it->second.epoch
                             : 0;
    if (age > max_age) return std::nullopt;
    return it->second.table;  // deep copy under the global lock
  }

 private:
  struct Entry {
    piye::relational::Table table;
    uint64_t epoch = 0;
  };
  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;
};

constexpr size_t kEntries = 256;
constexpr size_t kRowsPerTable = 32;

piye::relational::Table MakeTable(size_t marker) {
  piye::relational::Table t(piye::relational::Schema{
      piye::relational::Column{"patient_id", piye::relational::ColumnType::kString},
      piye::relational::Column{"count", piye::relational::ColumnType::kInt64}});
  for (size_t r = 0; r < kRowsPerTable; ++r) {
    (void)t.AppendRow(piye::relational::Row{
        piye::relational::Value::Str("patient-" + std::to_string(marker * 1000 + r) +
                                     std::string(48, 'p')),
        piye::relational::Value::Int(static_cast<int64_t>(r))});
  }
  return t;
}

std::string Fp(size_t i) { return "fingerprint-" + std::to_string(i); }

/// Runs `total_ops` Gets split over `threads` workers against `get`;
/// `hit_pct` of keys exist. Returns million-ops/sec.
template <typename GetFn>
double Throughput(size_t threads, size_t total_ops, int hit_pct, GetFn get) {
  const size_t ops_per_thread = total_ops / threads;
  std::atomic<bool> go{false};
  std::atomic<size_t> hits{0};
  std::vector<std::thread> workers;
  for (size_t w = 0; w < threads; ++w) {
    workers.emplace_back([&, w] {
      while (!go.load()) std::this_thread::yield();
      size_t local_hits = 0;
      for (size_t i = 0; i < ops_per_thread; ++i) {
        // Even spread over the keyspace; keys >= kEntries miss.
        const size_t roll = (w * 7919 + i) % 100;
        const size_t key = (w * 31 + i) % kEntries +
                           (static_cast<int>(roll) < hit_pct ? 0 : kEntries);
        if (get(Fp(key))) ++local_hits;
      }
      hits.fetch_add(local_hits);
    });
  }
  const auto start = std::chrono::steady_clock::now();
  go.store(true);
  for (auto& t : workers) t.join();
  const double secs =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count() /
      1e9;
  (void)hits;
  return threads * ops_per_thread / secs / 1e6;
}

void PrintThroughputSweep() {
  BaselineWarehouse baseline;
  Warehouse sharded;
  for (size_t i = 0; i < kEntries; ++i) {
    baseline.Put(Fp(i), MakeTable(i), 0);
    sharded.Put(Fp(i), MakeTable(i), 0);
  }
  auto baseline_get = [&baseline](const std::string& fp) {
    auto t = baseline.Get(fp, 0, 0);
    benchmark::DoNotOptimize(t);
    return t.has_value();
  };
  auto sharded_get = [&sharded](const std::string& fp) {
    auto t = sharded.Get(fp, 0, 0);
    benchmark::DoNotOptimize(t);
    return t != nullptr;
  };

  std::printf("--- warehouse Get throughput (Mops/s), %zu entries of %zu rows ---\n",
              kEntries, kRowsPerTable);
  std::printf("%-8s %-9s %-15s %-15s %s\n", "threads", "hit-rate", "baseline",
              "sharded", "speedup");
  constexpr size_t kTotalOps = 1 << 17;
  double speedup_at_8_full_hit = 0.0;
  for (size_t threads : {1, 2, 4, 8, 16}) {
    for (int hit_pct : {100, 50}) {
      const double base = Throughput(threads, kTotalOps, hit_pct, baseline_get);
      const double shard = Throughput(threads, kTotalOps, hit_pct, sharded_get);
      if (threads == 8 && hit_pct == 100) speedup_at_8_full_hit = shard / base;
      std::printf("%-8zu %-9d %-15.2f %-15.2f %.1fx\n", threads, hit_pct, base,
                  shard, shard / base);
    }
  }
  std::printf("(hits: baseline deep-copies the table under one global mutex; "
              "sharded hands out a refcounted handle under a per-shard lock)\n");
  std::printf("speedup_at_8_threads_full_hit: %.1fx (target >= 4x)\n\n",
              speedup_at_8_full_hit);
}

void PrintHitLatency() {
  BaselineWarehouse baseline;
  Warehouse sharded;
  for (size_t i = 0; i < kEntries; ++i) {
    baseline.Put(Fp(i), MakeTable(i), 0);
    sharded.Put(Fp(i), MakeTable(i), 0);
  }
  constexpr size_t kOps = 50'000;
  auto time_ns = [](auto fn) {
    const auto start = std::chrono::steady_clock::now();
    for (size_t i = 0; i < kOps; ++i) fn(i);
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - start)
               .count() /
           static_cast<double>(kOps);
  };
  const double base_ns = time_ns([&](size_t i) {
    auto t = baseline.Get(Fp(i % kEntries), 0, 0);
    benchmark::DoNotOptimize(t);
  });
  const double shard_ns = time_ns([&](size_t i) {
    auto t = sharded.Get(Fp(i % kEntries), 0, 0);
    benchmark::DoNotOptimize(t);
  });
  std::printf("--- single-threaded hit latency ---\n");
  std::printf("baseline (deep copy): %.0f ns/hit\nsharded (zero copy):  %.0f ns/hit\n\n",
              base_ns, shard_ns);
}

void PrintSingleFlightBurst() {
  std::printf("--- single-flight: 8 identical concurrent queries, slow sources ---\n");
  std::vector<std::unique_ptr<RemoteSource>> sources;
  for (size_t i = 0; i < 3; ++i) {
    auto tables = ClinicalScenario::MakePatientTables(50, 0.3, 100 + i);
    auto src = std::make_unique<RemoteSource>("hospital" + std::to_string(i),
                                              "patients", std::move(tables.hospital),
                                              /*seed=*/i + 1);
    ClinicalScenario::ApplyPatientPolicies(src.get());
    RemoteSource::FaultInjection faults;
    faults.latency_micros = 20'000;  // 20 ms per source
    src->set_fault_injection(faults);
    sources.push_back(std::move(src));
  }
  MediationEngine::Options options;
  options.max_combined_loss = 0.95;
  options.max_cumulative_loss = 1e9;
  options.worker_threads = 4;
  MediationEngine engine(options);
  for (const auto& src : sources) (void)engine.RegisterSource(src.get());
  (void)engine.GenerateMediatedSchema("bench-key");
  const auto query = *piye::source::PiqlQuery::Parse(
      "<query requester=\"analyst\" purpose=\"research\" maxLoss=\"0.95\">"
      "<select>patient_id</select></query>");

  constexpr int kCallers = 8;
  std::atomic<bool> go{false};
  std::vector<std::thread> callers;
  std::atomic<int> ok{0};
  const auto start = std::chrono::steady_clock::now();
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&] {
      while (!go.load()) std::this_thread::yield();
      // Coalescing, not caching, answers the repeats.
      if (engine.Execute(query, {.allow_warehouse = false}).ok()) ok.fetch_add(1);
    });
  }
  go.store(true);
  for (auto& t : callers) t.join();
  const double ms =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count() /
      1e6;
  std::printf(
      "  %d/%d ok in %.1f ms; leaders=%llu coalesced=%llu "
      "fragment_attempts=%llu history=%zu\n",
      ok.load(), kCallers, ms,
      static_cast<unsigned long long>(
          engine.metrics()->counter("engine.singleflight_leaders")),
      static_cast<unsigned long long>(
          engine.metrics()->counter("engine.singleflight_coalesced")),
      static_cast<unsigned long long>(
          engine.metrics()->counter("engine.fragment_attempts")),
      engine.history()->size());
  std::printf("  (without coalescing the burst costs %dx the source fan-outs "
              "and %dx the budget)\n\n",
              kCallers, kCallers);
}

void PrintEvictionBudget() {
  std::printf("--- byte-budget eviction: 1 MiB budget, ~%zu KiB entries ---\n",
              MakeTable(0).ApproxBytes() / 1024);
  piye::trace::MetricsRegistry metrics;
  Warehouse warehouse(Warehouse::Options{/*max_bytes=*/1 << 20});
  warehouse.set_metrics(&metrics);
  for (size_t i = 0; i < 1024; ++i) {
    warehouse.Put(Fp(i), MakeTable(i), /*epoch=*/i / 128);
  }
  std::printf("  resident: %zu entries, %zu bytes (budget %zu)\n",
              warehouse.size(), warehouse.bytes(), warehouse.max_bytes());
  std::printf("  evicted:  %llu entries, %llu bytes\n\n",
              static_cast<unsigned long long>(
                  metrics.counter("warehouse.evicted_entries")),
              static_cast<unsigned long long>(
                  metrics.counter("warehouse.bytes_evicted")));
}

// --- engine-level warehouse hits ---

constexpr size_t kHitThreadsMax = 4;
constexpr size_t kHitRequestsPerThread = 64;

/// A live engine over three in-process patient sources whose warehouse
/// already holds every answer the hit loops ask for: each client thread
/// owns 64 distinct requests (16 requesters x 4 query shapes).
struct HitDeployment {
  std::vector<std::unique_ptr<RemoteSource>> sources;
  std::unique_ptr<MediationEngine> engine;
  std::vector<std::vector<piye::source::PiqlQuery>> requests;  ///< per thread
};

HitDeployment* SharedHitDeployment() {
  static HitDeployment* d = [] {
    auto* out = new HitDeployment();
    for (size_t i = 0; i < 3; ++i) {
      auto tables = ClinicalScenario::MakePatientTables(200, 0.3, 100 + i);
      auto src = std::make_unique<RemoteSource>("hospital" + std::to_string(i),
                                                "patients", std::move(tables.hospital),
                                                /*seed=*/i + 1);
      ClinicalScenario::ApplyPatientPolicies(src.get());
      out->sources.push_back(std::move(src));
    }
    MediationEngine::Options options;
    options.max_combined_loss = 0.95;
    options.max_cumulative_loss = 1e9;
    options.worker_threads = 4;
    out->engine = std::make_unique<MediationEngine>(options);
    const char* shapes[] = {"<select>patient_id</select>", "<select>dob</select>",
                            "<select>zip</select>",
                            "<select>patient_id</select><select>sex</select>"};
    out->requests.resize(kHitThreadsMax);
    for (size_t t = 0; t < kHitThreadsMax; ++t) {
      for (size_t r = 0; r < kHitRequestsPerThread / 4; ++r) {
        const std::string requester =
            "t" + std::to_string(t) + "-r" + std::to_string(r);
        for (const auto& src : out->sources) {
          (void)src->mutable_rbac()->AssignRole(requester, "analyst");
        }
        for (const char* shape : shapes) {
          out->requests[t].push_back(*piye::source::PiqlQuery::Parse(
              "<query requester=\"" + requester +
              "\" purpose=\"research\" maxLoss=\"0.95\">" + shape + "</query>"));
        }
      }
    }
    for (const auto& src : out->sources) (void)out->engine->RegisterSource(src.get());
    (void)out->engine->GenerateMediatedSchema("bench-key");
    for (const auto& per_thread : out->requests) {
      for (const auto& query : per_thread) (void)out->engine->Execute(query);
    }
    return out;
  }();
  return d;
}

void PrintEngineHitLatency() {
  std::printf("--- engine-level warehouse hit: Execute on a warm warehouse, "
              "%zu distinct requests per thread ---\n",
              kHitRequestsPerThread);
  HitDeployment* d = SharedHitDeployment();
  constexpr size_t kRounds = 400;  // passes over each thread's requests
  std::printf("  threads  mean_ns  p50_ns  p90_ns  hits/thread\n");
  for (size_t threads : {size_t{1}, kHitThreadsMax}) {
    std::atomic<bool> go{false};
    std::atomic<size_t> misses{0};
    std::vector<std::vector<int64_t>> samples(threads);
    std::vector<std::thread> workers;
    for (size_t w = 0; w < threads; ++w) {
      workers.emplace_back([&, w] {
        const auto& requests = d->requests[w];
        samples[w].reserve(kRounds * requests.size());
        while (!go.load()) std::this_thread::yield();
        for (size_t round = 0; round < kRounds; ++round) {
          for (const auto& query : requests) {
            const auto start = std::chrono::steady_clock::now();
            auto result = d->engine->Execute(query);
            const auto stop = std::chrono::steady_clock::now();
            if (!result.ok() || !result->from_warehouse) misses.fetch_add(1);
            samples[w].push_back(
                std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start)
                    .count());
          }
        }
      });
    }
    go.store(true);
    for (auto& t : workers) t.join();
    std::vector<int64_t> all;
    for (const auto& s : samples) all.insert(all.end(), s.begin(), s.end());
    std::sort(all.begin(), all.end());
    double sum = 0;
    for (int64_t ns : all) sum += static_cast<double>(ns);
    std::printf("  %7zu  %7.0f  %6lld  %6lld  %zu%s\n", threads, sum / all.size(),
                static_cast<long long>(all[all.size() / 2]),
                static_cast<long long>(all[all.size() * 9 / 10]),
                kRounds * kHitRequestsPerThread,
                misses.load() == 0 ? "" : "  (some requests missed!)");
  }
  std::printf("\n");
}

// --- google-benchmark microbenchmarks (multi-threaded Get) ---

BaselineWarehouse* SharedBaseline() {
  static BaselineWarehouse* w = [] {
    auto* b = new BaselineWarehouse();
    for (size_t i = 0; i < kEntries; ++i) b->Put(Fp(i), MakeTable(i), 0);
    return b;
  }();
  return w;
}

Warehouse* SharedSharded() {
  static Warehouse* w = [] {
    auto* s = new Warehouse();
    for (size_t i = 0; i < kEntries; ++i) s->Put(Fp(i), MakeTable(i), 0);
    return s;
  }();
  return w;
}

void BM_BaselineHit(benchmark::State& state) {
  auto* warehouse = SharedBaseline();
  size_t i = static_cast<size_t>(state.thread_index()) * 7919;
  for (auto _ : state) {
    auto t = warehouse->Get(Fp(++i % kEntries), 0, 0);
    benchmark::DoNotOptimize(t);
  }
}
BENCHMARK(BM_BaselineHit)->Threads(1)->Threads(4)->Threads(8)->Threads(16);

void BM_ShardedHit(benchmark::State& state) {
  auto* warehouse = SharedSharded();
  size_t i = static_cast<size_t>(state.thread_index()) * 7919;
  for (auto _ : state) {
    auto t = warehouse->Get(Fp(++i % kEntries), 0, 0);
    benchmark::DoNotOptimize(t);
  }
}
BENCHMARK(BM_ShardedHit)->Threads(1)->Threads(4)->Threads(8)->Threads(16);

void BM_EngineHit(benchmark::State& state) {
  HitDeployment* d = SharedHitDeployment();
  const auto& requests =
      d->requests[static_cast<size_t>(state.thread_index()) % kHitThreadsMax];
  size_t i = 0;
  for (auto _ : state) {
    auto result = d->engine->Execute(requests[++i % requests.size()]);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_EngineHit)->Threads(1)->Threads(4);

void BM_ShardedPutEvict(benchmark::State& state) {
  Warehouse warehouse(Warehouse::Options{/*max_bytes=*/1 << 20});
  size_t i = 0;
  for (auto _ : state) {
    ++i;
    warehouse.Put(Fp(i % 4096), MakeTable(i % 64), i / 512);
  }
}
BENCHMARK(BM_ShardedPutEvict);

}  // namespace

int main(int argc, char** argv) {
  piye::Logger::SetLevel(piye::LogLevel::kError);
  PrintThroughputSweep();
  PrintHitLatency();
  PrintSingleFlightBurst();
  PrintEvictionBudget();
  PrintEngineHitLatency();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
