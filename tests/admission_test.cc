// Overload-resilience suite: CancelToken semantics, TokenBucket and
// FairShareQueue determinism properties (driven with a synthetic clock — no
// real time, bit-for-bit reproducible), AdmissionController behaviour, and
// the engine-level satellites: QueryOptions validation and the
// breaker-vs-shed interaction (a shed query must never count as a circuit
// breaker failure). Required to pass under PIYE_SANITIZE=thread.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.h"
#include "common/trace.h"
#include "core/scenario.h"
#include "mediator/admission.h"
#include "mediator/engine.h"
#include "reference/faulty_source.h"
#include "source/remote_source.h"

namespace piye {
namespace {

using mediator::AdmissionConfig;
using mediator::AdmissionController;
using mediator::FairShareQueue;
using mediator::TokenBucket;

using TimePoint = std::chrono::steady_clock::time_point;

TimePoint At(int64_t millis) { return TimePoint() + std::chrono::milliseconds(millis); }

// --- CancelToken ---

TEST(CancelTokenTest, DefaultTokenNeverFires) {
  CancelToken token;
  EXPECT_FALSE(token.can_fire());
  EXPECT_FALSE(token.cancelled());
  EXPECT_TRUE(token.Check().ok());
  EXPECT_FALSE(token.has_deadline());
  EXPECT_TRUE(token.SleepFor(std::chrono::microseconds(100)));
}

TEST(CancelTokenTest, SourceCancelFiresEveryCopy) {
  CancelSource source;
  CancelToken token = source.token();
  CancelToken copy = token;
  EXPECT_FALSE(token.cancelled());
  source.RequestCancel();
  EXPECT_TRUE(source.cancel_requested());
  EXPECT_TRUE(token.cancelled());
  EXPECT_TRUE(copy.cancelled());
  EXPECT_TRUE(token.status().IsCancelled());
  EXPECT_FALSE(token.SleepFor(std::chrono::microseconds(100)));
}

TEST(CancelTokenTest, FirstCancelReasonWins) {
  CancelSource source;
  source.RequestCancel(Status::Cancelled("first"));
  source.RequestCancel(Status::Cancelled("second"));
  EXPECT_EQ(source.token().status().message(), "first");
}

TEST(CancelTokenTest, PastDeadlineReportsDeadlineExceeded) {
  const CancelToken token =
      CancelToken().WithDeadline(std::chrono::steady_clock::now() -
                                 std::chrono::milliseconds(1));
  EXPECT_TRUE(token.can_fire());
  EXPECT_TRUE(token.cancelled());
  EXPECT_TRUE(token.status().IsDeadlineExceeded());
}

TEST(CancelTokenTest, WithDeadlineKeepsTheEarlier) {
  const auto early = std::chrono::steady_clock::now() + std::chrono::hours(1);
  const auto late = early + std::chrono::hours(1);
  EXPECT_EQ(CancelToken().WithDeadline(late).WithDeadline(early).deadline(), early);
  EXPECT_EQ(CancelToken().WithDeadline(early).WithDeadline(late).deadline(), early);
}

TEST(CancelTokenTest, RequestCancelInterruptsSleep) {
  CancelSource source;
  CancelToken token = source.token();
  std::thread canceller([&source] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    source.RequestCancel();
  });
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(token.SleepFor(std::chrono::microseconds(2'000'000)));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  canceller.join();
  EXPECT_LT(elapsed, std::chrono::milliseconds(1500));  // far below the 2 s sleep
}

// --- TokenBucket (synthetic clock: fully deterministic) ---

TEST(TokenBucketTest, BurstThenContinuousRefill) {
  TokenBucket bucket(/*tokens_per_second=*/2.0, /*burst=*/2.0);
  EXPECT_TRUE(bucket.TryConsume(At(0)));
  EXPECT_TRUE(bucket.TryConsume(At(0)));
  EXPECT_FALSE(bucket.TryConsume(At(0)));       // burst exhausted
  EXPECT_EQ(bucket.RetryAfterMillis(At(0)), 500u);  // 1 token / 2 per second
  EXPECT_FALSE(bucket.TryConsume(At(499)));
  EXPECT_TRUE(bucket.TryConsume(At(500)));
  EXPECT_EQ(bucket.RetryAfterMillis(At(500)), 500u);
}

TEST(TokenBucketTest, RefillCapsAtBurst) {
  TokenBucket bucket(/*tokens_per_second=*/10.0, /*burst=*/3.0);
  EXPECT_TRUE(bucket.TryConsume(At(0)));
  // An hour idle refills to the cap, not to 36000 tokens.
  EXPECT_DOUBLE_EQ(bucket.tokens(At(3'600'000)), 3.0);
}

TEST(TokenBucketTest, DefaultBurstIsMaxOfOneAndRate) {
  TokenBucket slow(/*tokens_per_second=*/0.25, /*burst=*/0.0);
  EXPECT_DOUBLE_EQ(slow.tokens(At(0)), 1.0);  // burst floor of one whole token
  TokenBucket fast(/*tokens_per_second=*/8.0, /*burst=*/0.0);
  EXPECT_DOUBLE_EQ(fast.tokens(At(0)), 8.0);
}

TEST(TokenBucketTest, DeterministicAdmissionScheduleConservation) {
  // Rate 1/s, burst 1, arrivals every 250 ms: exactly every 4th arrival finds
  // a whole token. Admitted + shed must equal offered, and the admitted set
  // must be bit-for-bit reproducible.
  auto run = [] {
    TokenBucket bucket(1.0, 1.0);
    std::vector<int> admitted;
    for (int i = 0; i < 40; ++i) {
      if (bucket.TryConsume(At(i * 250))) admitted.push_back(i);
    }
    return admitted;
  };
  const std::vector<int> first = run();
  EXPECT_EQ(first.size(), 10u);
  for (size_t k = 0; k < first.size(); ++k) {
    EXPECT_EQ(first[k], static_cast<int>(k * 4));
  }
  EXPECT_EQ(first, run());
}

// --- FairShareQueue ---

TEST(FairShareQueueTest, ConservationAdmittedPlusShedEqualsOffered) {
  FairShareQueue queue(/*max_depth=*/8);
  constexpr uint64_t kOffered = 20;
  uint64_t pushed = 0, shed = 0;
  for (uint64_t id = 0; id < kOffered; ++id) {
    if (queue.Push(id, "req" + std::to_string(id % 3), At(1000))) {
      ++pushed;
    } else {
      ++shed;
    }
  }
  EXPECT_EQ(pushed, 8u);
  EXPECT_EQ(queue.size(), 8u);
  uint64_t popped = 0, id = 0;
  while (queue.Pop(&id)) ++popped;
  EXPECT_EQ(popped, pushed);
  EXPECT_EQ(pushed + shed, kOffered);  // conservation: nothing lost, nothing invented
  EXPECT_TRUE(queue.empty());
}

TEST(FairShareQueueTest, SaturationShedsTheNewestArrival) {
  FairShareQueue queue(/*max_depth=*/3);
  EXPECT_TRUE(queue.Push(1, "a", At(10)));
  EXPECT_TRUE(queue.Push(2, "a", At(20)));
  EXPECT_TRUE(queue.Push(3, "b", At(30)));
  EXPECT_FALSE(queue.Push(4, "c", At(0)));  // LIFO shed: the newcomer loses,
  uint64_t id = 0;                          // even with the earliest deadline
  std::vector<uint64_t> served;
  while (queue.Pop(&id)) served.push_back(id);
  EXPECT_EQ(served.size(), 3u);
  for (uint64_t s : served) EXPECT_NE(s, 4u);
}

TEST(FairShareQueueTest, EqualWeightsAlternateDeterministically) {
  FairShareQueue queue(/*max_depth=*/16);
  std::map<uint64_t, std::string> owner;
  for (uint64_t i = 0; i < 4; ++i) {
    queue.Push(i, "alice", At(100));
    owner[i] = "alice";
    queue.Push(10 + i, "bob", At(100));
    owner[10 + i] = "bob";
  }
  std::vector<std::string> order;
  uint64_t id = 0;
  while (queue.Pop(&id)) order.push_back(owner[id]);
  const std::vector<std::string> expected = {"alice", "bob", "alice", "bob",
                                             "alice", "bob", "alice", "bob"};
  EXPECT_EQ(order, expected);
}

TEST(FairShareQueueTest, WeightedShareServesProportionally) {
  FairShareQueue queue(/*max_depth=*/16);
  queue.SetWeight("alice", 2.0);
  queue.SetWeight("bob", 1.0);
  std::map<uint64_t, std::string> owner;
  for (uint64_t i = 0; i < 6; ++i) {
    queue.Push(i, "alice", At(100));
    owner[i] = "alice";
    queue.Push(10 + i, "bob", At(100));
    owner[10 + i] = "bob";
  }
  size_t alice_in_first_six = 0;
  uint64_t id = 0;
  for (int k = 0; k < 6; ++k) {
    ASSERT_TRUE(queue.Pop(&id));
    if (owner[id] == "alice") ++alice_in_first_six;
  }
  // Stride scheduling: weight 2 is served twice as often as weight 1.
  EXPECT_EQ(alice_in_first_six, 4u);
}

TEST(FairShareQueueTest, NoStarvationUnderExtremeWeightSkew) {
  FairShareQueue queue(/*max_depth=*/256);
  queue.SetWeight("heavy", 100.0);
  queue.SetWeight("light", 1.0);
  std::map<uint64_t, std::string> owner;
  for (uint64_t i = 0; i < 200; ++i) {
    queue.Push(i, "heavy", At(100));
    owner[i] = "heavy";
  }
  queue.Push(1000, "light", At(100));
  owner[1000] = "light";
  // The light requester must be served within one full stride of the heavy
  // one (101 pops), not starved behind its entire backlog.
  uint64_t id = 0;
  bool light_served = false;
  for (int k = 0; k < 101 && queue.Pop(&id); ++k) {
    if (owner[id] == "light") {
      light_served = true;
      break;
    }
  }
  EXPECT_TRUE(light_served);
}

TEST(FairShareQueueTest, EarliestDeadlineFirstWithinARequester) {
  FairShareQueue queue(/*max_depth=*/8);
  queue.Push(1, "a", At(300));
  queue.Push(2, "a", At(100));
  queue.Push(3, "a", At(200));
  queue.Push(4, "a", At(100));  // equal deadline: FIFO by arrival
  std::vector<uint64_t> order;
  uint64_t id = 0;
  while (queue.Pop(&id)) order.push_back(id);
  const std::vector<uint64_t> expected = {2, 4, 3, 1};
  EXPECT_EQ(order, expected);
}

TEST(FairShareQueueTest, IdleRequesterBanksNoCredit) {
  FairShareQueue queue(/*max_depth=*/64);
  uint64_t id = 0;
  // alice alone consumes service for a while, advancing the virtual clock.
  for (uint64_t i = 0; i < 10; ++i) {
    queue.Push(i, "alice", At(100));
    ASSERT_TRUE(queue.Pop(&id));
  }
  // bob was idle the whole time. When both now queue a backlog, bob must not
  // be owed 10 consecutive slots of "credit" — service alternates.
  std::map<uint64_t, std::string> owner;
  for (uint64_t i = 0; i < 6; ++i) {
    queue.Push(100 + i, "alice", At(100));
    owner[100 + i] = "alice";
    queue.Push(200 + i, "bob", At(100));
    owner[200 + i] = "bob";
  }
  size_t bob_in_first_six = 0;
  for (int k = 0; k < 6; ++k) {
    ASSERT_TRUE(queue.Pop(&id));
    if (owner[id] == "bob") ++bob_in_first_six;
  }
  EXPECT_EQ(bob_in_first_six, 3u);
}

TEST(FairShareQueueTest, RemoveDropsOnlyTheNamedWaiter) {
  FairShareQueue queue(/*max_depth=*/8);
  queue.Push(1, "a", At(100));
  queue.Push(2, "a", At(200));
  EXPECT_TRUE(queue.Remove(1));
  EXPECT_FALSE(queue.Remove(1));  // already gone
  EXPECT_EQ(queue.size(), 1u);
  uint64_t id = 0;
  ASSERT_TRUE(queue.Pop(&id));
  EXPECT_EQ(id, 2u);
}

// --- AdmissionController ---

TEST(AdmissionControllerTest, PermissiveDefaultsAdmitImmediately) {
  trace::MetricsRegistry metrics;
  AdmissionController controller(AdmissionConfig{}, &metrics);
  auto permit = controller.Admit("anyone", CancelToken());
  ASSERT_TRUE(permit.ok());
  EXPECT_EQ(controller.inflight(), 1u);
  permit->Release();
  EXPECT_EQ(controller.inflight(), 0u);
  EXPECT_EQ(metrics.counter("engine.admitted"), 1u);
  EXPECT_EQ(metrics.counter("engine.shed"), 0u);
}

TEST(AdmissionControllerTest, LockFreePermissivePathCoexistsWithBoundedConfig) {
  // Two controllers share one registry: a permissive one hammered by four
  // threads through its lock-free path, and a bounded one that must still
  // admit, queue and shed exactly as before while that runs.
  trace::MetricsRegistry metrics;
  AdmissionController permissive(AdmissionConfig{}, &metrics);
  AdmissionConfig bounded_config;
  bounded_config.max_inflight = 1;
  bounded_config.max_queue_depth = 1;
  AdmissionController bounded(bounded_config, &metrics);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> hammers;
  for (int t = 0; t < kThreads; ++t) {
    hammers.emplace_back([&permissive, t] {
      for (int i = 0; i < kPerThread; ++i) {
        auto permit = permissive.Admit("r" + std::to_string(t), CancelToken());
        ASSERT_TRUE(permit.ok());
        EXPECT_GE(permissive.inflight(), 1u);
      }
    });
  }

  auto first = bounded.Admit("a", CancelToken());
  ASSERT_TRUE(first.ok());
  std::atomic<bool> queued_admitted{false};
  std::thread waiter([&] {
    auto second = bounded.Admit("b", CancelToken());
    ASSERT_TRUE(second.ok());
    queued_admitted.store(true);
  });
  while (bounded.queue_depth() == 0) std::this_thread::yield();
  auto third = bounded.Admit("c", CancelToken());
  ASSERT_FALSE(third.ok());
  EXPECT_TRUE(third.status().IsResourceExhausted());
  EXPECT_FALSE(queued_admitted.load());
  EXPECT_EQ(bounded.inflight(), 1u);
  first->Release();
  waiter.join();
  for (auto& t : hammers) t.join();

  EXPECT_TRUE(queued_admitted.load());
  EXPECT_EQ(permissive.inflight(), 0u);
  EXPECT_EQ(bounded.inflight(), 0u);
  EXPECT_EQ(bounded.queue_depth(), 0u);
  EXPECT_EQ(metrics.counter("engine.admitted"),
            static_cast<uint64_t>(kThreads * kPerThread) + 2);
  EXPECT_EQ(metrics.counter("engine.queued"), 1u);
  EXPECT_EQ(metrics.counter("engine.shed"), 1u);
}

TEST(AdmissionControllerTest, PreExpiredDeadlineRejectedBeforeAnything) {
  trace::MetricsRegistry metrics;
  AdmissionConfig config;
  config.max_inflight = 4;
  AdmissionController controller(config, &metrics);
  const CancelToken expired = CancelToken().WithDeadline(
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1));
  auto permit = controller.Admit("late", expired);
  ASSERT_FALSE(permit.ok());
  EXPECT_TRUE(permit.status().IsDeadlineExceeded());
  EXPECT_EQ(controller.inflight(), 0u);
  EXPECT_EQ(metrics.counter("engine.cancelled"), 1u);
  EXPECT_EQ(metrics.counter("engine.admitted"), 0u);
}

TEST(AdmissionControllerTest, SaturatedQueueShedsWithRetryAfterHint) {
  trace::MetricsRegistry metrics;
  AdmissionConfig config;
  config.max_inflight = 1;
  config.max_queue_depth = 0;  // no waiting room at all
  AdmissionController controller(config, &metrics);
  auto first = controller.Admit("a", CancelToken());
  ASSERT_TRUE(first.ok());
  auto second = controller.Admit("b", CancelToken());
  ASSERT_FALSE(second.ok());
  EXPECT_TRUE(second.status().IsResourceExhausted());
  EXPECT_NE(second.status().message().find("retry after"), std::string::npos);
  first->Release();
  EXPECT_EQ(metrics.counter("engine.admitted") + metrics.counter("engine.shed"), 2u);
}

TEST(AdmissionControllerTest, RateLimitShedsWithResourceExhausted) {
  trace::MetricsRegistry metrics;
  AdmissionConfig config;
  config.tokens_per_second = 0.001;  // refills far slower than this test runs
  config.bucket_burst = 1.0;
  AdmissionController controller(config, &metrics);
  auto first = controller.Admit("snooper", CancelToken());
  ASSERT_TRUE(first.ok());
  auto second = controller.Admit("snooper", CancelToken());
  ASSERT_FALSE(second.ok());
  EXPECT_TRUE(second.status().IsResourceExhausted());
  EXPECT_NE(second.status().message().find("rate limit"), std::string::npos);
  // Other requesters have their own bucket.
  auto other = controller.Admit("honest", CancelToken());
  EXPECT_TRUE(other.ok());
}

TEST(AdmissionControllerTest, ReleaseHandsTheSlotToAQueuedWaiter) {
  trace::MetricsRegistry metrics;
  AdmissionConfig config;
  config.max_inflight = 1;
  config.max_queue_depth = 8;
  AdmissionController controller(config, &metrics);
  auto first = controller.Admit("a", CancelToken());
  ASSERT_TRUE(first.ok());
  std::atomic<bool> second_admitted{false};
  std::thread waiter([&] {
    auto second = controller.Admit("b", CancelToken());
    EXPECT_TRUE(second.ok());
    second_admitted.store(true);
    second->Release();
  });
  // Give the waiter time to enqueue, then free the slot.
  while (controller.queue_depth() == 0) std::this_thread::yield();
  EXPECT_FALSE(second_admitted.load());
  first->Release();
  waiter.join();
  EXPECT_TRUE(second_admitted.load());
  EXPECT_EQ(controller.inflight(), 0u);
  EXPECT_EQ(controller.queue_depth(), 0u);
  EXPECT_EQ(metrics.counter("engine.admitted"), 2u);
}

TEST(AdmissionControllerTest, CancelledWaiterLeavesTheQueue) {
  trace::MetricsRegistry metrics;
  AdmissionConfig config;
  config.max_inflight = 1;
  config.max_queue_depth = 8;
  AdmissionController controller(config, &metrics);
  auto first = controller.Admit("a", CancelToken());
  ASSERT_TRUE(first.ok());
  CancelSource source;
  Status waiter_status;
  std::thread waiter([&] {
    auto second = controller.Admit("b", source.token());
    waiter_status = second.status();
  });
  while (controller.queue_depth() == 0) std::this_thread::yield();
  source.RequestCancel();
  waiter.join();
  EXPECT_TRUE(waiter_status.IsCancelled()) << waiter_status.ToString();
  EXPECT_EQ(controller.queue_depth(), 0u);
  first->Release();
  EXPECT_EQ(controller.inflight(), 0u);
  EXPECT_EQ(metrics.counter("engine.cancelled"), 1u);
}

TEST(AdmissionControllerTest, ConcurrentBurstConservesEveryQuery) {
  trace::MetricsRegistry metrics;
  AdmissionConfig config;
  config.max_inflight = 2;
  config.max_queue_depth = 4;
  AdmissionController controller(config, &metrics);
  constexpr int kOffered = 24;
  std::atomic<int> ok_count{0}, shed_count{0};
  std::vector<std::thread> threads;
  threads.reserve(kOffered);
  for (int i = 0; i < kOffered; ++i) {
    threads.emplace_back([&controller, &ok_count, &shed_count, i] {
      auto permit =
          controller.Admit("requester" + std::to_string(i % 3), CancelToken());
      if (permit.ok()) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        ok_count.fetch_add(1);
        permit->Release();
      } else {
        EXPECT_TRUE(permit.status().IsResourceExhausted());
        shed_count.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok_count.load() + shed_count.load(), kOffered);
  EXPECT_EQ(metrics.counter("engine.admitted") + metrics.counter("engine.shed"),
            static_cast<uint64_t>(kOffered));
  EXPECT_GE(ok_count.load(), 2);  // at least the initial capacity got through
  EXPECT_EQ(controller.inflight(), 0u);   // drained to idle
  EXPECT_EQ(controller.queue_depth(), 0u);
}

// --- Engine-level satellites ---

source::faultref::Fleet BuildSources(size_t n) {
  source::faultref::Fleet sources;
  for (size_t i = 0; i < n; ++i) {
    auto tables = core::ClinicalScenario::MakePatientTables(20, 0.3, 100 + i);
    auto src = std::make_unique<source::RemoteSource>(
        "hospital" + std::to_string(i), "patients", std::move(tables.hospital),
        /*seed=*/i + 1);
    core::ClinicalScenario::ApplyPatientPolicies(src.get());
    sources.Add(std::move(src));
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

// Every query here runs live, never from the warehouse.
mediator::QueryOptions LiveOptions() { return {.allow_warehouse = false}; }

source::PiqlQuery MakeQuery(const std::string& body) {
  auto q = source::PiqlQuery::Parse(
      "<query requester=\"analyst\" purpose=\"research\" maxLoss=\"0.95\">" +
      body + "</query>");
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  return *q;
}

TEST(QueryOptionsValidationTest, NegativeDeadlineRejected) {
  auto sources = BuildSources(2);
  auto engine = BuildEngine(sources, {});
  mediator::QueryOptions options = LiveOptions();
  options.deadline_ms = -5;
  auto result = engine->Execute(MakeQuery("<select>patient_id</select>"), options);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument()) << result.status().ToString();
  // Rejected before anything was touched: not even the query counter moved.
  EXPECT_EQ(engine->metrics()->counter("engine.queries"), 0u);
  EXPECT_EQ(engine->history()->size(), 0u);
}

TEST(QueryOptionsValidationTest, DeadlineAboveLimitRejected) {
  // deadline_ms is added to a nanosecond steady-clock time point: this much
  // would wrap to a deadline in the past and skip every source.
  auto sources = BuildSources(2);
  auto engine = BuildEngine(sources, {});
  const auto query = MakeQuery("<select>patient_id</select>");
  mediator::QueryOptions options = LiveOptions();
  options.deadline_ms = std::numeric_limits<int64_t>::max() / 1000;
  auto result = engine->Execute(query, options);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument()) << result.status().ToString();
  EXPECT_EQ(engine->metrics()->counter("engine.queries"), 0u);
  options.deadline_ms = mediator::QueryOptions::kMaxDeadlineMs + 1;
  result = engine->Execute(query, options);
  EXPECT_TRUE(result.status().IsInvalidArgument()) << result.status().ToString();
  // The limit itself is a deadline like any other: every source answers.
  options.deadline_ms = mediator::QueryOptions::kMaxDeadlineMs;
  result = engine->Execute(query, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->sources_answered.size(), 2u);
}

TEST(QueryOptionsValidationTest, RetryCountAboveLimitRejected) {
  auto sources = BuildSources(2);
  auto engine = BuildEngine(sources, {});
  mediator::QueryOptions options = LiveOptions();
  options.max_retries = mediator::QueryOptions::kMaxRetriesLimit + 1;
  auto result = engine->Execute(MakeQuery("<select>patient_id</select>"), options);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
  // The limit itself is fine.
  options.max_retries = mediator::QueryOptions::kMaxRetriesLimit;
  EXPECT_TRUE(engine->Execute(MakeQuery("<select>patient_id</select>"), options).ok());
}

TEST(QueryOptionsValidationTest, UnmeetableQuorumRejected) {
  auto sources = BuildSources(2);
  auto engine = BuildEngine(sources, {});
  mediator::QueryOptions options = LiveOptions();
  options.min_sources = 3;  // only 2 registered: no outcome can satisfy this
  auto result = engine->Execute(MakeQuery("<select>patient_id</select>"), options);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
  EXPECT_NE(result.status().message().find("min_sources"), std::string::npos);
}

TEST(QueryOptionsValidationTest, ZeroDeadlineStillMeansNoDeadline) {
  // Back-compat: 0 is the documented "no deadline" default, not an error.
  auto sources = BuildSources(2);
  auto engine = BuildEngine(sources, {});
  mediator::QueryOptions options = LiveOptions();
  options.deadline_ms = 0;
  EXPECT_TRUE(engine->Execute(MakeQuery("<select>patient_id</select>"), options).ok());
}

TEST(BreakerShedInteractionTest, ShedQueriesDoNotCountAsBreakerFailures) {
  // Regression: a query shed at admission never dialed any source, so it
  // must not advance any circuit breaker's failure accounting — and it must
  // not charge the requester's privacy budget.
  auto sources = BuildSources(3);
  mediator::MediationEngine::Options engine_options;
  engine_options.admission.tokens_per_second = 0.001;  // one query, then shed
  engine_options.admission.bucket_burst = 1.0;
  auto engine = BuildEngine(sources, engine_options);

  const auto query = MakeQuery("<select>patient_id</select>");
  auto first = engine->Execute(query, LiveOptions());
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  const double budget_after_first = engine->history()->CumulativeLoss("analyst");
  const size_t history_after_first = engine->history()->size();

  auto shed = engine->Execute(query, LiveOptions());
  ASSERT_FALSE(shed.ok());
  EXPECT_TRUE(shed.status().IsResourceExhausted()) << shed.status().ToString();

  // No breaker heard about the shed query.
  const auto health = engine->Health();
  for (const auto& src : health.sources) {
    EXPECT_EQ(src.consecutive_failures, 0u) << src.owner;
    EXPECT_EQ(src.breaker_state, "closed") << src.owner;
  }
  // And the shed query charged nothing and recorded nothing.
  EXPECT_EQ(engine->history()->CumulativeLoss("analyst"), budget_after_first);
  EXPECT_EQ(engine->history()->size(), history_after_first);
  EXPECT_EQ(health.shed_total, 1u);
  EXPECT_EQ(health.admitted_total, 1u);
}

TEST(BreakerShedInteractionTest, CallerCancellationDoesNotBlameSources) {
  // A caller that gives up mid-flight is not a source failure either: the
  // fragments stop cooperatively and the breakers stay untouched.
  auto sources = BuildSources(3);
  for (auto& src : sources.faulty) {
    source::faultref::FaultySource::Plan faults;
    faults.drop_rate = 1.0;  // every call hangs...
    faults.hang_micros = 2'000'000;
    faults.seed = 42;
    src->set_plan(faults);
  }
  mediator::MediationEngine::Options engine_options;
  engine_options.worker_threads = 4;
  auto engine = BuildEngine(sources, engine_options);

  CancelSource cancel;
  mediator::QueryOptions options = LiveOptions();
  options.cancel = cancel.token();
  std::thread canceller([&cancel] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    cancel.RequestCancel();
  });
  const auto start = std::chrono::steady_clock::now();
  auto result = engine->Execute(MakeQuery("<select>patient_id</select>"), options);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  canceller.join();
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCancelled()) << result.status().ToString();
  // ...but the cancellation interrupted the 2 s hangs almost immediately.
  EXPECT_LT(elapsed, std::chrono::milliseconds(1500));
  const auto health = engine->Health();
  for (const auto& src : health.sources) {
    EXPECT_EQ(src.consecutive_failures, 0u) << src.owner;
  }
  EXPECT_EQ(engine->history()->CumulativeLoss("analyst"), 0.0);
  EXPECT_EQ(engine->history()->size(), 0u);
  EXPECT_GE(health.cancelled_total, 1u);
}

}  // namespace
}  // namespace piye
