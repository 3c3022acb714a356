// Experiment abl-overload — the admission pipeline as a performance object
// (DESIGN.md §8, EXPERIMENTS.md abl-overload):
//
//   1. baseline vs overload: the same engine serving a polite trickle and a
//      4x-oversubscribed closed-loop burst. With admission enabled the burst
//      is partially shed with kResourceExhausted + a retry-after hint, and
//      the queries that ARE admitted keep near-baseline latency — goodput
//      degrades gracefully instead of collapsing into queue meltdown;
//   2. deadline & cancellation response: how long a caller actually waits
//      when every source hangs, with a pre-expired deadline (rejected at
//      admission, zero fragments dispatched), a short deadline, and an
//      explicit mid-flight RequestCancel;
//   3. weighted fair share: three requesters hammering a saturated engine,
//      with admitted counts tracked per requester — a weight-2 requester
//      should land about twice the goodput of a weight-1 requester.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.h"
#include "common/logging.h"
#include "core/scenario.h"
#include "mediator/admission.h"
#include "mediator/engine.h"
#include "reference/faulty_source.h"
#include "source/remote_source.h"

using piye::CancelSource;
using piye::CancelToken;
using piye::core::ClinicalScenario;
using piye::mediator::AdmissionConfig;
using piye::mediator::MediationEngine;
using piye::mediator::QueryOptions;
using piye::source::RemoteSource;
using piye::source::faultref::FaultySource;
using piye::source::faultref::Fleet;

namespace {

constexpr uint64_t kSourceLatencyMicros = 2000;  // 2 ms per source per fragment

Fleet BuildSources(size_t n, uint64_t latency_micros) {
  Fleet sources;
  for (size_t i = 0; i < n; ++i) {
    auto tables = ClinicalScenario::MakePatientTables(50, 0.3, 100 + i);
    auto src = std::make_unique<RemoteSource>("hospital" + std::to_string(i),
                                              "patients", std::move(tables.hospital),
                                              /*seed=*/i + 1);
    ClinicalScenario::ApplyPatientPolicies(src.get());
    // The fair-share section issues queries as distinct requesters; the
    // clinical RBAC policy only knows "analyst", so grant the bench
    // identities the same role.
    for (const char* requester : {"alice", "bob", "carol"}) {
      (void)src->mutable_rbac()->AssignRole(requester, "analyst");
    }
    sources.Add(std::move(src), {.latency_micros = latency_micros});
  }
  return sources;
}

std::unique_ptr<MediationEngine> BuildEngine(const Fleet& sources,
                                             const AdmissionConfig& admission,
                                             size_t worker_threads) {
  MediationEngine::Options options;
  options.max_combined_loss = 0.95;
  options.max_cumulative_loss = 1e9;
  options.worker_threads = worker_threads;
  options.admission = admission;
  auto engine = std::make_unique<MediationEngine>(options);
  for (const auto& src : sources.faulty) (void)engine->RegisterSource(src.get());
  (void)engine->GenerateMediatedSchema("bench-key");
  return engine;
}

// Every query here runs live: overload is about fan-out, not cache hits.
QueryOptions LiveOptions() { return {.allow_warehouse = false}; }

piye::source::PiqlQuery Query(const std::string& requester) {
  auto q = piye::source::PiqlQuery::Parse(
      "<query requester=\"" + requester +
      "\" purpose=\"research\" maxLoss=\"0.95\">"
      "<select>patient_id</select><select>sex</select></query>");
  return *q;
}

double Percentile(std::vector<double> sorted, double p) {
  if (sorted.empty()) return 0.0;
  std::sort(sorted.begin(), sorted.end());
  const size_t idx = std::min(
      sorted.size() - 1, static_cast<size_t>(p * (sorted.size() - 1) + 0.5));
  return sorted[idx];
}

struct LoadResult {
  uint64_t ok = 0;
  uint64_t shed = 0;
  uint64_t other = 0;
  double wall_ms = 0.0;
  std::vector<double> ok_latencies_ms;  ///< admitted-query latencies only
};

/// Closed-loop load: `threads` clients each issue `per_thread` queries
/// back-to-back. Queries are issued uncoalesced so every one of them must
/// pass admission on its own (coalescing would hide the overload).
LoadResult RunLoad(MediationEngine* engine, size_t threads, size_t per_thread) {
  std::atomic<uint64_t> ok{0}, shed{0}, other{0};
  std::vector<std::vector<double>> latencies(threads);
  const auto query = Query("analyst");
  QueryOptions options = LiveOptions();
  options.coalesce = false;
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      for (size_t i = 0; i < per_thread; ++i) {
        const auto q0 = std::chrono::steady_clock::now();
        auto result = engine->Execute(query, options);
        const double ms = std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now() - q0)
                              .count() /
                          1e6;
        if (result.ok()) {
          ok.fetch_add(1);
          latencies[t].push_back(ms);
        } else if (result.status().IsResourceExhausted()) {
          shed.fetch_add(1);
        } else {
          other.fetch_add(1);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  LoadResult r;
  r.wall_ms = std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - start)
                  .count() /
              1e6;
  r.ok = ok.load();
  r.shed = shed.load();
  r.other = other.load();
  for (auto& v : latencies)
    r.ok_latencies_ms.insert(r.ok_latencies_ms.end(), v.begin(), v.end());
  return r;
}

void PrintRow(const char* label, const LoadResult& r, uint64_t offered) {
  const double goodput = r.wall_ms > 0 ? r.ok / (r.wall_ms / 1000.0) : 0.0;
  std::printf("%-22s %-8llu %-8llu %-8llu %-11.1f %-9.2f %-9.2f %.2f\n", label,
              static_cast<unsigned long long>(offered),
              static_cast<unsigned long long>(r.ok),
              static_cast<unsigned long long>(r.shed), goodput,
              Percentile(r.ok_latencies_ms, 0.50),
              Percentile(r.ok_latencies_ms, 0.95),
              Percentile(r.ok_latencies_ms, 0.99));
}

void PrintOverloadSweep() {
  std::printf("--- baseline vs 4x overload (3 sources @ %.1f ms, "
              "max_inflight=4, queue=8) ---\n",
              kSourceLatencyMicros / 1000.0);
  std::printf("%-22s %-8s %-8s %-8s %-11s %-9s %-9s %s\n", "scenario", "offered",
              "ok", "shed", "goodput/s", "p50(ms)", "p95(ms)", "p99(ms)");
  auto sources = BuildSources(3, kSourceLatencyMicros);

  AdmissionConfig admission;
  admission.max_inflight = 4;
  admission.max_queue_depth = 8;
  auto engine = BuildEngine(sources, admission, /*worker_threads=*/8);

  // Baseline: 2 polite clients — well under capacity, nothing sheds.
  const auto baseline = RunLoad(engine.get(), /*threads=*/2, /*per_thread=*/20);
  PrintRow("baseline (2 clients)", baseline, 2 * 20);

  // Overload: 16 clients against 4 slots — 4x oversubscribed. The queue
  // absorbs a bounded backlog; the rest is shed at admission before touching
  // budget, history, or any source.
  const auto overload = RunLoad(engine.get(), /*threads=*/16, /*per_thread=*/5);
  PrintRow("overload (16 clients)", overload, 16 * 5);

  // The same overload with admission off: every query queues on the source
  // pool instead, so nothing sheds and tail latency absorbs the backlog.
  auto unguarded = BuildEngine(sources, AdmissionConfig{}, /*worker_threads=*/8);
  const auto melted = RunLoad(unguarded.get(), /*threads=*/16, /*per_thread=*/5);
  PrintRow("overload, no admission", melted, 16 * 5);

  const auto health = engine->Health();
  std::printf("(guarded engine totals: admitted=%llu shed=%llu cancelled=%llu; "
              "drained to inflight=%zu queue=%zu)\n\n",
              static_cast<unsigned long long>(health.admitted_total),
              static_cast<unsigned long long>(health.shed_total),
              static_cast<unsigned long long>(health.cancelled_total),
              health.admission_inflight, health.admission_queue_depth);
}

void PrintCancellationTiming() {
  std::printf("--- deadline & cancellation response (3 sources, all hung 2 s) ---\n");
  auto sources = BuildSources(3, 0);
  FaultySource::Plan hanging;
  hanging.drop_rate = 1.0;
  hanging.hang_micros = 2'000'000;
  hanging.seed = 9;
  for (auto& src : sources.faulty) src->set_plan(hanging);
  auto engine = BuildEngine(sources, AdmissionConfig{}, /*worker_threads=*/8);
  const auto query = Query("analyst");

  auto timed = [&](const char* label, const QueryOptions& options,
                   CancelSource* cancel_after_ms, int64_t delay_ms) {
    const auto start = std::chrono::steady_clock::now();
    std::thread canceller;
    if (cancel_after_ms != nullptr) {
      canceller = std::thread([cancel_after_ms, delay_ms] {
        std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
        cancel_after_ms->RequestCancel();
      });
    }
    auto result = engine->Execute(query, options);
    const double ms = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - start)
                          .count() /
                      1e6;
    if (canceller.joinable()) canceller.join();
    std::printf("  %-28s returned %-20s in %8.2f ms\n", label,
                result.ok() ? "ok" : result.status().ToString().substr(0, 20).c_str(),
                ms);
  };

  {
    QueryOptions options = LiveOptions();
    options.cancel = CancelToken{}.WithDeadline(std::chrono::steady_clock::now() -
                                                std::chrono::milliseconds(1));
    timed("pre-expired deadline", options, nullptr, 0);
  }
  {
    QueryOptions options = LiveOptions();
    options.deadline_ms = 100;
    timed("deadline_ms = 100", options, nullptr, 0);
  }
  {
    QueryOptions options = LiveOptions();
    options.cancel = CancelToken{}.WithTimeout(std::chrono::milliseconds(100));
    timed("token deadline = 100 ms", options, nullptr, 0);
  }
  {
    CancelSource source;
    QueryOptions options = LiveOptions();
    options.cancel = source.token();
    timed("RequestCancel after 50 ms", options, &source, 50);
  }
  std::printf("(sources are hung for 2000 ms; every variant returns near its "
              "bound, not near the hang)\n\n");
}

void PrintFairShareTable() {
  std::printf("--- weighted fair share under sustained saturation ---\n");
  auto sources = BuildSources(3, kSourceLatencyMicros);
  // Capacity 1 with a deep queue: nearly every admission is decided by the
  // fair-share scheduler rather than the uncontended fast path, so the
  // admitted mix reflects the weights.
  AdmissionConfig admission;
  admission.max_inflight = 1;
  admission.max_queue_depth = 8;
  admission.requester_weights = {{"alice", 2.0}, {"bob", 1.0}, {"carol", 1.0}};
  auto engine = BuildEngine(sources, admission, /*worker_threads=*/8);

  const std::vector<std::string> requesters = {"alice", "bob", "carol"};
  std::map<std::string, std::atomic<uint64_t>> admitted;
  for (const auto& r : requesters) admitted[r] = 0;

  // Closed loop: 3 workers per requester retry through sheds for a fixed
  // window, so every requester always has demand and the queue stays full —
  // the admitted mix is then the scheduler's choice, not the workload's.
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (const auto& requester : requesters) {
    for (int w = 0; w < 3; ++w) {
      workers.emplace_back([&, requester] {
        const auto query = Query(requester);
        QueryOptions options = LiveOptions();
        options.coalesce = false;
        while (!stop.load()) {
          auto result = engine->Execute(query, options);
          if (result.ok()) {
            admitted[requester].fetch_add(1);
          } else {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
        }
      });
    }
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  stop.store(true);
  for (auto& w : workers) w.join();

  uint64_t total = 0;
  for (const auto& r : requesters) total += admitted[r].load();
  std::printf("%-10s %-8s %-10s %s\n", "requester", "weight", "admitted", "share");
  for (const auto& r : requesters) {
    const double weight = admission.requester_weights.at(r);
    const uint64_t n = admitted[r].load();
    std::printf("%-10s %-8.1f %-10llu %.2f\n", r.c_str(), weight,
                static_cast<unsigned long long>(n),
                total > 0 ? static_cast<double>(n) / total : 0.0);
  }
  std::printf("(weights 2:1:1 ⇒ expected shares ~0.50/0.25/0.25; %llu admitted "
              "total)\n\n",
              static_cast<unsigned long long>(total));
}

void BM_AdmitUncontended(benchmark::State& state) {
  auto sources = BuildSources(1, 0);
  AdmissionConfig admission;
  admission.max_inflight = 8;
  auto engine = BuildEngine(sources, admission, /*worker_threads=*/1);
  const auto query = Query("analyst");
  QueryOptions options = LiveOptions();
  options.coalesce = false;
  for (auto _ : state) {
    auto result = engine->Execute(query, options);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_AdmitUncontended)->Unit(benchmark::kMicrosecond);

void BM_ShedAtRateLimit(benchmark::State& state) {
  // Per-iteration cost of the shed path itself: a drained token bucket
  // rejects before the query touches anything, so this measures admission's
  // overload fast-path (parse + fingerprint + bucket check).
  auto sources = BuildSources(1, 0);
  AdmissionConfig admission;
  admission.tokens_per_second = 1e-9;  // bucket never refills in bench time
  admission.bucket_burst = 1.0;
  auto engine = BuildEngine(sources, admission, /*worker_threads=*/1);
  const auto query = Query("analyst");
  QueryOptions options = LiveOptions();
  options.coalesce = false;
  (void)engine->Execute(query, options);  // drain the bucket's single token
  for (auto _ : state) {
    auto result = engine->Execute(query, options);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_ShedAtRateLimit)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  piye::Logger::SetLevel(piye::LogLevel::kError);
  PrintOverloadSweep();
  PrintCancellationTiming();
  PrintFairShareTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
