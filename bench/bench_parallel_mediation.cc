// Experiment parallel-mediation — the mediation engine's concurrent
// fault-tolerant fragment fan-out as a performance object:
//
//   1. serial vs parallel wall clock over 1–16 autonomous sources, each with
//      injected per-source latency (the federated regime the paper assumes:
//      remote sources dominated by network/service time, not CPU);
//   2. a byte-identity audit: the parallel engine must integrate the exact
//      same answer as the serial engine on every scenario — fan-out is a
//      pure wall-clock optimization;
//   3. graceful degradation under injected faults: transient errors and a
//      hung source land in sources_skipped instead of failing the query.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.h"
#include "core/scenario.h"
#include "mediator/engine.h"
#include "relational/table_codec.h"
#include "source/remote_source.h"

using piye::core::ClinicalScenario;
using piye::mediator::MediationEngine;
using piye::mediator::QueryOptions;
using piye::source::RemoteSource;

namespace {

constexpr uint64_t kInjectedLatencyMicros = 1000;  // >= 1 ms per source

std::vector<std::unique_ptr<RemoteSource>> BuildSources(size_t n,
                                                        uint64_t latency_micros) {
  std::vector<std::unique_ptr<RemoteSource>> sources;
  for (size_t i = 0; i < n; ++i) {
    auto tables = ClinicalScenario::MakePatientTables(50, 0.3, 100 + i);
    auto src = std::make_unique<RemoteSource>("hospital" + std::to_string(i),
                                              "patients", std::move(tables.hospital),
                                              /*seed=*/i + 1);
    ClinicalScenario::ApplyPatientPolicies(src.get());
    if (latency_micros > 0) {
      RemoteSource::FaultInjection faults;
      faults.latency_micros = latency_micros;
      src->set_fault_injection(faults);
    }
    sources.push_back(std::move(src));
  }
  return sources;
}

std::unique_ptr<MediationEngine> BuildEngine(
    const std::vector<std::unique_ptr<RemoteSource>>& sources,
    size_t worker_threads) {
  MediationEngine::Options options;
  options.max_combined_loss = 0.95;
  options.max_cumulative_loss = 1e9;
  options.enable_warehouse = false;
  options.worker_threads = worker_threads;
  auto engine = std::make_unique<MediationEngine>(options);
  for (const auto& src : sources) (void)engine->RegisterSource(src.get());
  (void)engine->GenerateMediatedSchema("bench-key");
  return engine;
}

piye::source::PiqlQuery Query(const std::string& body) {
  auto q = piye::source::PiqlQuery::Parse(
      "<query requester=\"analyst\" purpose=\"research\" maxLoss=\"0.95\">" + body +
      "</query>");
  return *q;
}

std::string TableBytes(const piye::relational::Table& t) {
  return piye::relational::EncodeTable(t);
}

double WallMillis(MediationEngine* engine, const piye::source::PiqlQuery& query,
                  const QueryOptions& options) {
  const auto start = std::chrono::steady_clock::now();
  auto result = engine->Execute(query, options);
  const auto end = std::chrono::steady_clock::now();
  if (!result.ok()) {
    std::printf("  !! query failed: %s\n", result.status().ToString().c_str());
    return -1.0;
  }
  return std::chrono::duration_cast<std::chrono::nanoseconds>(end - start).count() /
         1e6;
}

void PrintFanoutSweep() {
  std::printf("--- serial vs parallel fan-out (%.1f ms injected per-source "
              "latency) ---\n",
              kInjectedLatencyMicros / 1000.0);
  std::printf("%-8s %-12s %-12s %-9s %s\n", "sources", "serial(ms)", "parallel(ms)",
              "speedup", "byte-identical");
  const auto query = Query("<select>patient_id</select><select>sex</select>");
  for (size_t n : {1, 2, 4, 8, 16}) {
    auto sources = BuildSources(n, kInjectedLatencyMicros);
    auto serial = BuildEngine(sources, /*worker_threads=*/0);
    auto parallel = BuildEngine(sources, /*worker_threads=*/16);
    QueryOptions options;
    const double serial_ms = WallMillis(serial.get(), query, options);
    const double parallel_ms = WallMillis(parallel.get(), query, options);
    if (serial_ms < 0 || parallel_ms < 0) continue;
    auto rs = serial->Execute(query, options);
    auto rp = parallel->Execute(query, options);
    const bool identical =
        rs.ok() && rp.ok() && TableBytes(rs->table()) == TableBytes(rp->table());
    std::printf("%-8zu %-12.2f %-12.2f %-9.2f %s\n", n, serial_ms, parallel_ms,
                serial_ms / parallel_ms, identical ? "yes" : "NO — BUG");
  }
  std::printf("(serial cost grows ~linearly with source count; parallel stays "
              "near one source's latency — the engine hides autonomous-source "
              "delay behind concurrency)\n\n");
}

void PrintByteIdentityAudit() {
  // The heterogeneous 3-source clinical scenario every other bench uses
  // (hospital / pharmacy / lab), swept over the existing query shapes.
  std::printf("--- byte-identity audit: parallel vs serial on the clinical "
              "scenario ---\n");
  auto make_trio = [] {
    std::vector<std::unique_ptr<RemoteSource>> sources;
    auto tables = ClinicalScenario::MakePatientTables(200, 0.4, 11);
    sources.push_back(std::make_unique<RemoteSource>("hospital", "patients",
                                                     std::move(tables.hospital), 1));
    sources.push_back(std::make_unique<RemoteSource>("pharmacy", "rx",
                                                     std::move(tables.pharmacy), 2));
    sources.push_back(
        std::make_unique<RemoteSource>("lab", "tests", std::move(tables.lab), 3));
    for (auto& src : sources) ClinicalScenario::ApplyPatientPolicies(src.get());
    return sources;
  };
  struct Scenario {
    const char* name;
    const char* body;
    std::vector<std::string> dedup_keys;
  };
  const Scenario scenarios[] = {
      {"select-shared", "<select>patient_id</select><select>dob</select>", {}},
      {"select-single-source", "<select>diagnosis</select>", {}},
      {"select-filtered", "<select>patient_id</select><where>sex = 'F'</where>", {}},
      {"dedup-by-key",
       "<select>patient_id</select><select>drug</select>",
       {"patient_id"}},
  };
  auto sources = make_trio();
  auto serial = BuildEngine(sources, 0);
  auto parallel = BuildEngine(sources, 8);
  for (const auto& s : scenarios) {
    QueryOptions options;
    options.dedup_keys = s.dedup_keys;
    auto rs = serial->Execute(Query(s.body), options);
    auto rp = parallel->Execute(Query(s.body), options);
    const bool both_ok = rs.ok() && rp.ok();
    const bool identical = both_ok && TableBytes(rs->table()) == TableBytes(rp->table()) &&
                           rs->sources_answered == rp->sources_answered &&
                           rs->sources_skipped == rp->sources_skipped;
    std::printf("  %-22s %s\n", s.name,
                both_ok ? (identical ? "identical" : "DIVERGED — BUG")
                        : (rs.ok() == rp.ok() ? "both refused (identical)"
                                              : "DIVERGED — BUG"));
  }
  std::printf("\n");
}

void PrintDegradation() {
  std::printf("--- graceful degradation: 8 sources, 2 fault-injected ---\n");
  auto sources = BuildSources(8, kInjectedLatencyMicros);
  RemoteSource::FaultInjection erroring;
  erroring.error_rate = 1.0;
  erroring.seed = 7;
  sources[2]->set_fault_injection(erroring);
  RemoteSource::FaultInjection hanging;
  hanging.drop_rate = 1.0;
  hanging.hang_micros = 200'000;
  hanging.seed = 8;
  sources[5]->set_fault_injection(hanging);
  auto engine = BuildEngine(sources, 16);
  QueryOptions options;
  options.deadline_ms = 50;
  options.max_retries = 2;
  const auto start = std::chrono::steady_clock::now();
  auto result = engine->Execute(Query("<select>patient_id</select>"), options);
  const double ms =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count() /
      1e6;
  if (!result.ok()) {
    std::printf("  !! query failed: %s\n", result.status().ToString().c_str());
    return;
  }
  std::printf("  answered in %.2f ms by %zu/8 sources; skipped:\n", ms,
              result->sources_answered.size());
  for (const auto& [owner, reason] : result->sources_skipped) {
    std::printf("    %-12s %s\n", owner.c_str(), reason.c_str());
  }
  std::printf("  engine metrics: %s\n\n", engine->metrics()->ToJson().c_str());
}

void BM_SerialFanout(benchmark::State& state) {
  auto sources = BuildSources(static_cast<size_t>(state.range(0)),
                              kInjectedLatencyMicros);
  auto engine = BuildEngine(sources, /*worker_threads=*/0);
  const auto query = Query("<select>patient_id</select>");
  for (auto _ : state) {
    auto result = engine->Execute(query, QueryOptions{});
    benchmark::DoNotOptimize(result);
  }
  state.counters["sources"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_SerialFanout)->Arg(1)->Arg(4)->Arg(8)->Arg(16)->Unit(benchmark::kMillisecond);

void BM_ParallelFanout(benchmark::State& state) {
  auto sources = BuildSources(static_cast<size_t>(state.range(0)),
                              kInjectedLatencyMicros);
  auto engine = BuildEngine(sources, /*worker_threads=*/16);
  const auto query = Query("<select>patient_id</select>");
  for (auto _ : state) {
    auto result = engine->Execute(query, QueryOptions{});
    benchmark::DoNotOptimize(result);
  }
  state.counters["sources"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_ParallelFanout)->Arg(1)->Arg(4)->Arg(8)->Arg(16)->Unit(benchmark::kMillisecond);

void BM_DegradedQuery(benchmark::State& state) {
  auto sources = BuildSources(8, kInjectedLatencyMicros);
  RemoteSource::FaultInjection erroring;
  erroring.error_rate = 1.0;
  sources[2]->set_fault_injection(erroring);
  auto engine = BuildEngine(sources, 16);
  QueryOptions options;
  options.deadline_ms = 50;
  options.max_retries = 1;
  const auto query = Query("<select>patient_id</select>");
  for (auto _ : state) {
    auto result = engine->Execute(query, options);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_DegradedQuery)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  piye::Logger::SetLevel(piye::LogLevel::kError);
  PrintFanoutSweep();
  PrintByteIdentityAudit();
  PrintDegradation();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
