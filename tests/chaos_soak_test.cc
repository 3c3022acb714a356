// Deterministic chaos/soak harness for the overload-resilience subsystem
// (ISSUE: admission control, deadline propagation, cooperative cancellation).
// Drives the mediation engine through saturating bursts, closed-loop
// fair-share contention, hung-source cancellations, and seeded fault-storm
// soak rounds, asserting the invariants that make overload behaviour safe:
//
//   * conservation: every offered query is admitted, shed, or cancelled —
//     nothing is lost, and shed/cancelled queries charge zero privacy budget
//     and write no history;
//   * correctness under load: every admitted answer is byte-identical to the
//     serial (unloaded) execution of the same query;
//   * fairness: under sustained saturation each requester achieves at least
//     half of its fair share of goodput;
//   * responsiveness: an expired or cancelled query returns promptly (≤ 2×
//     its deadline) instead of riding out source hangs;
//   * stability: the engine drains to idle after every storm.
//
// Required to pass under PIYE_SANITIZE=thread (scripts/sanitize.sh); the
// workload is sleep-dominated (injected source latency), so the bounds hold
// under sanitizer slowdowns.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.h"
#include "core/scenario.h"
#include "mediator/engine.h"
#include "reference/faulty_source.h"
#include "relational/table_codec.h"
#include "source/remote_source.h"

namespace piye {
namespace {

std::string TableBytes(const relational::Table& t) {
  return relational::EncodeTable(t);
}

using source::faultref::FaultySource;

source::faultref::Fleet BuildSources(size_t n, uint64_t latency_micros) {
  source::faultref::Fleet sources;
  for (size_t i = 0; i < n; ++i) {
    auto tables = core::ClinicalScenario::MakePatientTables(20, 0.3, 100 + i);
    auto src = std::make_unique<source::RemoteSource>(
        "hospital" + std::to_string(i), "patients", std::move(tables.hospital),
        /*seed=*/i + 1);
    core::ClinicalScenario::ApplyPatientPolicies(src.get());
    // The chaos requesters act with the analyst role: the load-shaping under
    // test is admission's, not the access-control layer's.
    for (const char* requester : {"alice", "bob"}) {
      EXPECT_TRUE(src->mutable_rbac()->AssignRole(requester, "analyst").ok());
    }
    sources.Add(std::move(src), {.latency_micros = latency_micros});
  }
  return sources;
}

std::unique_ptr<mediator::MediationEngine> BuildEngine(
    const source::faultref::Fleet& sources, mediator::MediationEngine::Options options) {
  options.max_combined_loss = 0.95;
  options.max_cumulative_loss = 1e9;
  auto engine = std::make_unique<mediator::MediationEngine>(options);
  for (const auto& src : sources.faulty) {
    EXPECT_TRUE(engine->RegisterSource(src.get()).ok());
  }
  EXPECT_TRUE(engine->GenerateMediatedSchema("shared-key").ok());
  return engine;
}

// Every answer here is a live execution, never a warehouse hit.
mediator::QueryOptions LiveOptions() { return {.allow_warehouse = false}; }

source::PiqlQuery MakeQuery() {
  auto q = source::PiqlQuery::Parse(
      "<query requester=\"analyst\" purpose=\"research\" maxLoss=\"0.95\">"
      "<select>patient_id</select><select>sex</select></query>");
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  return *q;
}

void ExpectDrainedToIdle(mediator::MediationEngine* engine) {
  const auto health = engine->Health();
  EXPECT_EQ(health.admission_inflight, 0u);
  EXPECT_EQ(health.admission_queue_depth, 0u);
}

// A saturating open-loop burst: 2 requesters fire 20 concurrent queries each
// at an engine with 4 slots and an 8-deep queue. Asserts conservation, the
// shed contract (kResourceExhausted, zero budget, no history), byte-identity
// of every admitted answer with the serial execution, and drain-to-idle.
TEST(ChaosSoakTest, SaturatingBurstConservesChargesAndAnswersExactly) {
  auto sources = BuildSources(3, /*latency_micros=*/3000);

  // One-worker, unloaded reference: what every admitted answer must look like.
  mediator::MediationEngine::Options serial_options;
  serial_options.worker_threads = 1;
  auto serial = BuildEngine(sources, serial_options);
  mediator::QueryOptions serial_qopts = LiveOptions();
  serial_qopts.coalesce = false;
  auto reference = serial->Execute(MakeQuery(), serial_qopts);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  const std::string reference_bytes = TableBytes(reference->table());
  const double loss_per_release = reference->combined_privacy_loss;

  mediator::MediationEngine::Options options;
  options.worker_threads = 4;
  options.admission.max_inflight = 4;
  options.admission.max_queue_depth = 8;
  auto engine = BuildEngine(sources, options);

  constexpr int kPerRequester = 20;
  const std::string requesters[] = {"alice", "bob"};
  std::atomic<int> ok_count{0}, shed_count{0}, other_count{0};
  std::vector<std::string> ok_bytes[2];
  std::mutex ok_mu;
  // Start gate: every caller is spawned and ready before any arrives, so the
  // burst overloads the engine even when thread start-up is slow (a loaded
  // machine, a sanitizer build).
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int i = 0; i < 2 * kPerRequester; ++i) {
    threads.emplace_back([&, i] {
      mediator::QueryOptions qopts = LiveOptions();
      qopts.requester = requesters[i % 2];  // interleaved arrival by requester
      qopts.coalesce = false;               // every call is a real execution
      const auto query = MakeQuery();
      ready.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
      auto result = engine->Execute(query, qopts);
      if (result.ok()) {
        ok_count.fetch_add(1);
        std::lock_guard<std::mutex> lock(ok_mu);
        ok_bytes[i % 2].push_back(TableBytes(result->table()));
      } else if (result.status().IsResourceExhausted()) {
        shed_count.fetch_add(1);
        EXPECT_NE(result.status().message().find("retry after"),
                  std::string::npos);
      } else {
        ADD_FAILURE() << "unexpected status: " << result.status().ToString();
        other_count.fetch_add(1);
      }
    });
  }
  while (ready.load() < 2 * kPerRequester) std::this_thread::yield();
  go.store(true);
  for (auto& t : threads) t.join();

  // Conservation: admitted + shed == offered, both as observed by callers
  // and as counted by the engine.
  EXPECT_EQ(ok_count.load() + shed_count.load() + other_count.load(),
            2 * kPerRequester);
  const auto health = engine->Health();
  EXPECT_EQ(health.admitted_total + health.shed_total,
            static_cast<uint64_t>(2 * kPerRequester));
  EXPECT_EQ(health.admitted_total, static_cast<uint64_t>(ok_count.load()));
  EXPECT_EQ(health.shed_total, static_cast<uint64_t>(shed_count.load()));
  EXPECT_GE(ok_count.load(), 4);  // at least the initial capacity got through
  EXPECT_GE(shed_count.load(), 1);  // the burst did overload the engine

  // Shed queries charged zero budget and wrote no history: the books must
  // account exactly the released answers, nothing more.
  EXPECT_EQ(engine->history()->size(), static_cast<size_t>(ok_count.load()));
  const double total_budget = engine->history()->CumulativeLoss("alice") +
                              engine->history()->CumulativeLoss("bob");
  EXPECT_NEAR(total_budget, ok_count.load() * loss_per_release, 1e-6);

  // Every admitted answer is byte-identical to the unloaded serial answer.
  for (const auto& per_requester : ok_bytes) {
    for (const auto& bytes : per_requester) {
      EXPECT_EQ(bytes, reference_bytes);
    }
  }
  ExpectDrainedToIdle(engine.get());
}

// Closed-loop contention: 4 symmetric workers per requester hammer an engine
// with 2 slots for a fixed window, retrying after sheds. Each requester must
// achieve at least half of its fair share of the goodput (fair share = half
// the total), and goodput must not collapse under the overload.
TEST(ChaosSoakTest, FairShareGoodputUnderSustainedSaturation) {
  auto sources = BuildSources(3, /*latency_micros=*/2000);
  mediator::MediationEngine::Options options;
  options.worker_threads = 4;
  options.admission.max_inflight = 2;
  options.admission.max_queue_depth = 2;
  auto engine = BuildEngine(sources, options);

  const std::string requesters[] = {"alice", "bob"};
  std::atomic<int> goodput[2] = {{0}, {0}};
  const auto window_end =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(300);
  std::vector<std::thread> workers;
  for (int w = 0; w < 8; ++w) {
    workers.emplace_back([&, w] {
      mediator::QueryOptions qopts = LiveOptions();
      qopts.requester = requesters[w % 2];
      qopts.coalesce = false;
      while (std::chrono::steady_clock::now() < window_end) {
        auto result = engine->Execute(MakeQuery(), qopts);
        if (result.ok()) {
          goodput[w % 2].fetch_add(1);
        } else if (result.status().IsResourceExhausted()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        } else {
          ADD_FAILURE() << result.status().ToString();
          return;
        }
      }
    });
  }
  for (auto& t : workers) t.join();

  const int total = goodput[0].load() + goodput[1].load();
  EXPECT_GE(total, 10) << "goodput collapsed under saturation";
  // Fair share for two equal-weight requesters is total/2; each must get at
  // least half of that even while the engine sheds their excess offers.
  for (int r = 0; r < 2; ++r) {
    EXPECT_GE(goodput[r].load(), total / 4)
        << requesters[r] << " starved: " << goodput[r].load() << " of " << total;
  }
  ExpectDrainedToIdle(engine.get());
}

// A query whose token deadline has already passed is rejected at admission:
// kDeadlineExceeded, zero fragments dispatched, nothing charged or recorded.
TEST(ChaosSoakTest, PreExpiredDeadlineRejectedBeforeAnyDispatch) {
  auto sources = BuildSources(3, /*latency_micros=*/0);
  mediator::MediationEngine::Options options;
  options.worker_threads = 4;
  auto engine = BuildEngine(sources, options);

  mediator::QueryOptions qopts = LiveOptions();
  qopts.cancel = CancelToken().WithDeadline(std::chrono::steady_clock::now() -
                                            std::chrono::milliseconds(1));
  auto result = engine->Execute(MakeQuery(), qopts);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsDeadlineExceeded()) << result.status().ToString();
  EXPECT_EQ(engine->metrics()->counter("engine.fragment_attempts"), 0u);
  EXPECT_EQ(engine->history()->size(), 0u);
  EXPECT_EQ(engine->Health().cancelled_total, 1u);
  ExpectDrainedToIdle(engine.get());
}

// Against sources that hang far past any deadline, a whole-query deadline
// must bound the caller's wait: the engine returns within 2× the deadline,
// charges nothing, and the hung fragments die cooperatively.
TEST(ChaosSoakTest, ExpiredDeadlineReturnsWithinTwiceTheDeadline) {
  auto sources = BuildSources(3, /*latency_micros=*/0);
  for (auto& src : sources.faulty) {
    FaultySource::Plan faults;
    faults.drop_rate = 1.0;
    faults.hang_micros = 2'000'000;  // 2 s hang vs a 150 ms deadline
    faults.seed = 7;
    src->set_plan(faults);
  }
  mediator::MediationEngine::Options options;
  options.worker_threads = 4;
  auto engine = BuildEngine(sources, options);

  constexpr auto kDeadline = std::chrono::milliseconds(150);
  mediator::QueryOptions qopts = LiveOptions();
  qopts.cancel = CancelToken().WithTimeout(kDeadline);
  const auto start = std::chrono::steady_clock::now();
  auto result = engine->Execute(MakeQuery(), qopts);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsDeadlineExceeded()) << result.status().ToString();
  EXPECT_LE(elapsed, 2 * kDeadline);
  EXPECT_EQ(engine->history()->size(), 0u);
  ExpectDrainedToIdle(engine.get());
}

// Explicit caller cancellation behaves the same way: prompt return with
// kCancelled, zero budget, no breaker blame (covered in admission_test), and
// the engine keeps serving afterwards.
TEST(ChaosSoakTest, CancellationStopsHungFragmentsAndEngineStaysServable) {
  auto sources = BuildSources(3, /*latency_micros=*/0);
  for (auto& src : sources.faulty) {
    FaultySource::Plan faults;
    faults.drop_rate = 1.0;
    faults.hang_micros = 2'000'000;
    faults.seed = 11;
    src->set_plan(faults);
  }
  mediator::MediationEngine::Options options;
  options.worker_threads = 4;
  auto engine = BuildEngine(sources, options);

  CancelSource cancel;
  mediator::QueryOptions qopts = LiveOptions();
  qopts.cancel = cancel.token();
  std::thread canceller([&cancel] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    cancel.RequestCancel();
  });
  const auto start = std::chrono::steady_clock::now();
  auto result = engine->Execute(MakeQuery(), qopts);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  canceller.join();
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCancelled()) << result.status().ToString();
  EXPECT_LT(elapsed, std::chrono::milliseconds(1500));  // not the 2 s hang
  EXPECT_EQ(engine->history()->size(), 0u);

  // The engine is still fully servable: heal the sources and query again.
  for (auto& src : sources.faulty) {
    src->set_plan({});
  }
  auto after = engine->Execute(MakeQuery(), LiveOptions());
  EXPECT_TRUE(after.ok()) << after.status().ToString();
  ExpectDrainedToIdle(engine.get());
}

// Seeded soak: repeated burst rounds against sources with seeded transient
// fault storms. Every round must preserve conservation (admitted + shed +
// cancelled == offered), the shed/cancel zero-charge contract, and drain to
// idle; the history must account exactly the released answers.
TEST(ChaosSoakTest, SeededFaultStormSoakHoldsInvariantsEveryRound) {
  auto sources = BuildSources(3, /*latency_micros=*/1000);
  mediator::MediationEngine::Options options;
  options.worker_threads = 4;
  options.admission.max_inflight = 3;
  options.admission.max_queue_depth = 4;
  auto engine = BuildEngine(sources, options);

  constexpr int kRounds = 3;
  constexpr int kOfferedPerRound = 16;
  uint64_t offered_total = 0;
  std::atomic<int> ok_total{0};

  for (int round = 0; round < kRounds; ++round) {
    // A different (but seeded, reproducible) fault storm each round.
    for (size_t s = 0; s < sources.size(); ++s) {
      FaultySource::Plan faults;
      faults.latency_micros = 1000;
      faults.error_rate = 0.25;
      faults.seed = 1000 + static_cast<uint64_t>(round) * 10 + s;
      sources.faulty[s]->set_plan(faults);
    }
    std::vector<std::thread> threads;
    for (int i = 0; i < kOfferedPerRound; ++i) {
      threads.emplace_back([&, i] {
        mediator::QueryOptions qopts = LiveOptions();
        qopts.requester = (i % 2 == 0) ? "alice" : "bob";
        qopts.coalesce = false;
        qopts.max_retries = 2;
        auto result = engine->Execute(MakeQuery(), qopts);
        if (result.ok()) {
          ok_total.fetch_add(1);
        } else {
          // Under a fault storm the only legitimate failures are load sheds
          // and full transport outages — never an unexplained error.
          EXPECT_TRUE(result.status().IsResourceExhausted() ||
                      result.status().IsUnavailable())
              << result.status().ToString();
        }
      });
    }
    for (auto& t : threads) t.join();
    offered_total += kOfferedPerRound;

    const auto health = engine->Health();
    EXPECT_EQ(health.admitted_total + health.shed_total + health.cancelled_total,
              offered_total)
        << "round " << round;
    ExpectDrainedToIdle(engine.get());
  }
  // The books account exactly the released answers across the whole soak.
  EXPECT_EQ(engine->history()->size(), static_cast<size_t>(ok_total.load()));
}

}  // namespace
}  // namespace piye
