// Concurrency suite: the common/executor thread pool, the common/trace
// metrics layer, and the mediation engine's concurrent fault-tolerant
// fragment fan-out (deadlines, bounded retry, quorum, graceful degradation,
// and determinism across thread counts). This suite is required to pass
// under PIYE_SANITIZE=thread (scripts/sanitize.sh).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/executor.h"
#include "common/trace.h"
#include "core/private_iye.h"
#include "core/scenario.h"
#include "mediator/engine.h"
#include "relational/table_codec.h"

namespace piye {
namespace {

// --- Executor ---

TEST(ExecutorTest, SubmitReturnsResults) {
  Executor pool(4);
  auto a = pool.Submit([] { return 21 * 2; });
  auto b = pool.Submit([] { return std::string("ok"); });
  EXPECT_EQ(a.get(), 42);
  EXPECT_EQ(b.get(), "ok");
  EXPECT_EQ(pool.num_threads(), 4u);
  EXPECT_EQ(pool.tasks_submitted(), 2u);
}

TEST(ExecutorTest, SubmitPropagatesExceptionsThroughFuture) {
  Executor pool(1);
  auto f = pool.Submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ExecutorTest, ParallelForCoversEveryIndexExactlyOnce) {
  Executor pool(4);
  constexpr size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(kN, [&hits](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
  pool.ParallelFor(0, [](size_t) { FAIL() << "must not run for n=0"; });
}

TEST(ExecutorTest, TasksRunConcurrently) {
  Executor pool(2);
  // Two tasks that each wait for the other: only completes if the pool
  // really runs them in parallel.
  std::atomic<bool> a_started{false}, b_started{false};
  auto wait_for = [](std::atomic<bool>& flag) {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!flag.load()) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::yield();
    }
    return true;
  };
  auto fa = pool.Submit([&] {
    a_started = true;
    return wait_for(b_started);
  });
  auto fb = pool.Submit([&] {
    b_started = true;
    return wait_for(a_started);
  });
  EXPECT_TRUE(fa.get());
  EXPECT_TRUE(fb.get());
}

TEST(ExecutorTest, DestructorDrainsQueuedTasks) {
  std::atomic<int> ran{0};
  {
    Executor pool(1);
    for (int i = 0; i < 32; ++i) {
      (void)pool.Submit([&ran] { ran.fetch_add(1); });
    }
  }  // destructor joins after draining
  EXPECT_EQ(ran.load(), 32);
}

// --- Trace / metrics ---

TEST(TraceTest, ScopedSpanRecordsNonNegativeMicros) {
  trace::Trace t;
  {
    trace::ScopedSpan span("work", &t);
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  auto timings = t.timings();
  ASSERT_EQ(timings.size(), 1u);
  EXPECT_EQ(timings[0].stage, "work");
  EXPECT_GT(timings[0].micros, 0.0);
}

TEST(TraceTest, StopEndsSpanEarlyAndOnce) {
  trace::Trace t;
  trace::ScopedSpan span("early", &t);
  const double micros = span.Stop();
  EXPECT_GE(micros, 0.0);
  EXPECT_EQ(span.Stop(), 0.0);  // idempotent
  EXPECT_EQ(t.timings().size(), 1u);
}

TEST(TraceTest, HistogramStatsAndPercentiles) {
  trace::Histogram h;
  for (double v : {1.0, 2.0, 4.0, 8.0, 1000.0}) h.Record(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum_micros(), 1015.0);
  EXPECT_DOUBLE_EQ(h.min_micros(), 1.0);
  EXPECT_DOUBLE_EQ(h.max_micros(), 1000.0);
  EXPECT_LE(h.PercentileMicros(0.5), 8.0);
  EXPECT_DOUBLE_EQ(h.PercentileMicros(1.0), 1000.0);
}

TEST(TraceTest, RegistryCountersAndJson) {
  trace::MetricsRegistry registry;
  registry.AddCounter("queries");
  registry.AddCounter("queries", 2);
  registry.RecordLatency("stage.fragment", 123.0);
  EXPECT_EQ(registry.counter("queries"), 3u);
  EXPECT_EQ(registry.counter("missing"), 0u);
  EXPECT_EQ(registry.latency("stage.fragment").count(), 1u);
  const std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"queries\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"stage.fragment\""), std::string::npos);
  EXPECT_NE(json.find("\"p95_micros\""), std::string::npos);
  registry.Reset();
  EXPECT_EQ(registry.counter("queries"), 0u);
}

// Minimal strict JSON value parser for the ToJson round-trip test: accepts
// exactly the RFC 8259 grammar for objects of strings/numbers/objects,
// rejects bad escapes, unescaped control characters, and trailing input.
// Returns false on any deviation; collects decoded object keys.
class StrictJsonParser {
 public:
  explicit StrictJsonParser(const std::string& text) : text_(text) {}

  bool Parse() {
    bool ok = ParseValue();
    SkipWs();
    return ok && pos_ == text_.size();
  }

  const std::vector<std::string>& keys() const { return keys_; }

 private:
  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipWs();
    if (pos_ >= text_.size() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  bool ParseString(std::string* out) {
    SkipWs();
    if (pos_ >= text_.size() || text_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c == '\\') {
        if (pos_ + 1 >= text_.size()) return false;
        const char esc = text_[pos_ + 1];
        switch (esc) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'b': out->push_back('\b'); break;
          case 'f': out->push_back('\f'); break;
          case 'n': out->push_back('\n'); break;
          case 'r': out->push_back('\r'); break;
          case 't': out->push_back('\t'); break;
          case 'u': {
            if (pos_ + 5 >= text_.size()) return false;
            unsigned code = 0;
            for (int i = 2; i < 6; ++i) {
              const char h = text_[pos_ + i];
              if (!std::isxdigit(static_cast<unsigned char>(h))) return false;
              code = code * 16 + (std::isdigit(static_cast<unsigned char>(h))
                                      ? h - '0'
                                      : (std::tolower(h) - 'a') + 10);
            }
            if (code > 0x7f) return false;  // names here are ASCII
            out->push_back(static_cast<char>(code));
            pos_ += 4;
            break;
          }
          default:
            return false;  // e.g. an unescaped backslash making "\p"
        }
        pos_ += 2;
        continue;
      }
      out->push_back(c);
      ++pos_;
    }
    return false;  // unterminated
  }

  bool ParseNumber() {
    SkipWs();
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    size_t digits = 0;
    while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
      ++digits;
    }
    if (digits == 0) return false;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      size_t frac = 0;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
        ++frac;
      }
      if (frac == 0) return false;  // "1." is not JSON
    }
    return pos_ > start;
  }

  bool ParseObject() {
    if (!Consume('{')) return false;
    SkipWs();
    if (Consume('}')) return true;
    while (true) {
      std::string key;
      if (!ParseString(&key)) return false;
      keys_.push_back(std::move(key));
      if (!Consume(':')) return false;
      if (!ParseValue()) return false;
      SkipWs();
      if (Consume(',')) continue;
      return Consume('}');
    }
  }

  bool ParseValue() {
    SkipWs();
    if (pos_ >= text_.size()) return false;
    if (text_[pos_] == '{') return ParseObject();
    if (text_[pos_] == '"') {
      std::string ignored;
      return ParseString(&ignored);
    }
    return ParseNumber();
  }

  const std::string& text_;
  size_t pos_ = 0;
  std::vector<std::string> keys_;
};

TEST(TraceTest, ToJsonRoundTripsHostileNamesThroughStrictParser) {
  trace::MetricsRegistry registry;
  // Names a careless emitter would corrupt: embedded quote, backslash,
  // newline, and a control character.
  const std::string quoted = "queries\"total\"";
  const std::string slashed = "path\\to\\metric";
  const std::string multiline = "line1\nline2";
  const std::string control = std::string("ctl") + '\x01' + "x";
  registry.AddCounter(quoted, 3);
  registry.AddCounter(slashed, 7);
  registry.AddCounter(multiline);
  registry.AddCounter(control);
  registry.RecordLatency(quoted, 42.0);

  const std::string json = registry.ToJson();
  StrictJsonParser parser(json);
  ASSERT_TRUE(parser.Parse()) << json;

  // Round trip: every hostile name must decode back to its original bytes.
  const auto& keys = parser.keys();
  auto has_key = [&keys](const std::string& want) {
    return std::find(keys.begin(), keys.end(), want) != keys.end();
  };
  EXPECT_TRUE(has_key(quoted)) << json;
  EXPECT_TRUE(has_key(slashed)) << json;
  EXPECT_TRUE(has_key(multiline)) << json;
  EXPECT_TRUE(has_key(control)) << json;
  EXPECT_NE(json.find("\"queries\\\"total\\\"\": 3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"path\\\\to\\\\metric\": 7"), std::string::npos) << json;
  EXPECT_NE(json.find("\\u0001"), std::string::npos) << json;
}

TEST(TraceTest, ToJsonEmitsExplicitZerosForEmptyHistograms) {
  trace::MetricsRegistry registry;
  registry.DeclareLatency("declared.but.never.recorded");
  const std::string json = registry.ToJson();
  StrictJsonParser parser(json);
  ASSERT_TRUE(parser.Parse()) << json;
  const std::string want =
      "\"declared.but.never.recorded\": {\"count\": 0, "
      "\"sum_micros\": 0.000, \"min_micros\": 0.000, \"max_micros\": 0.000, "
      "\"mean_micros\": 0.000, \"p50_micros\": 0.000, \"p95_micros\": 0.000, "
      "\"p99_micros\": 0.000}";
  EXPECT_NE(json.find(want), std::string::npos) << json;
  // The snapshot accessor agrees: empty histogram, all-zero summary.
  EXPECT_EQ(registry.latency("declared.but.never.recorded").count(), 0u);
  EXPECT_EQ(registry.latency("declared.but.never.recorded").max_micros(), 0.0);
}

TEST(TraceTest, RegistryIsSafeForConcurrentWriters) {
  trace::MetricsRegistry registry;
  Executor pool(4);
  pool.ParallelFor(64, [&registry](size_t i) {
    registry.AddCounter("c");
    registry.RecordLatency("l", static_cast<double>(i));
  });
  EXPECT_EQ(registry.counter("c"), 64u);
  EXPECT_EQ(registry.latency("l").count(), 64u);
}

// --- Engine fan-out over homogeneous patient sources ---

std::string TableBytes(const relational::Table& t) {
  return relational::EncodeTable(t);
}

std::vector<std::unique_ptr<source::RemoteSource>> BuildSources(
    size_t n, uint64_t latency_micros = 0) {
  std::vector<std::unique_ptr<source::RemoteSource>> sources;
  for (size_t i = 0; i < n; ++i) {
    auto tables = core::ClinicalScenario::MakePatientTables(20, 0.3, 100 + i);
    auto src = std::make_unique<source::RemoteSource>(
        "hospital" + std::to_string(i), "patients", std::move(tables.hospital),
        /*seed=*/i + 1);
    core::ClinicalScenario::ApplyPatientPolicies(src.get());
    if (latency_micros > 0) {
      source::RemoteSource::FaultInjection faults;
      faults.latency_micros = latency_micros;
      src->set_fault_injection(faults);
    }
    sources.push_back(std::move(src));
  }
  return sources;
}

std::unique_ptr<mediator::MediationEngine> BuildEngine(
    const std::vector<std::unique_ptr<source::RemoteSource>>& sources,
    size_t worker_threads) {
  mediator::MediationEngine::Options options;
  options.max_combined_loss = 0.95;
  options.max_cumulative_loss = 1e9;
  options.enable_warehouse = false;
  options.worker_threads = worker_threads;
  auto engine = std::make_unique<mediator::MediationEngine>(options);
  for (const auto& src : sources) {
    EXPECT_TRUE(engine->RegisterSource(src.get()).ok());
  }
  EXPECT_TRUE(engine->GenerateMediatedSchema("shared-key").ok());
  return engine;
}

source::PiqlQuery MakeQuery(const std::string& body) {
  auto q = source::PiqlQuery::Parse(
      "<query requester=\"analyst\" purpose=\"research\" maxLoss=\"0.95\">" + body +
      "</query>");
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  return *q;
}

TEST(EngineFanoutTest, ParallelOutputIsByteIdenticalToSerial) {
  auto sources = BuildSources(6, /*latency_micros=*/1000);
  auto serial = BuildEngine(sources, /*worker_threads=*/0);
  auto parallel = BuildEngine(sources, /*worker_threads=*/8);
  const auto query = MakeQuery("<select>patient_id</select><select>sex</select>");
  auto rs = serial->Execute(query, mediator::QueryOptions{});
  auto rp = parallel->Execute(query, mediator::QueryOptions{});
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_TRUE(rp.ok()) << rp.status().ToString();
  EXPECT_EQ(rs->sources_answered, rp->sources_answered);
  EXPECT_EQ(rs->sources_skipped, rp->sources_skipped);
  EXPECT_EQ(TableBytes(rs->table()), TableBytes(rp->table()));
  EXPECT_DOUBLE_EQ(rs->combined_privacy_loss, rp->combined_privacy_loss);
}

TEST(EngineFanoutTest, DeterministicAcrossThreadCounts) {
  auto sources = BuildSources(5);
  const auto query = MakeQuery("<select>patient_id</select><select>dob</select>");
  std::string reference;
  for (size_t threads : {0u, 1u, 2u, 8u}) {
    auto engine = BuildEngine(sources, threads);
    auto result = engine->Execute(query, mediator::QueryOptions{});
    ASSERT_TRUE(result.ok()) << "threads=" << threads << ": "
                             << result.status().ToString();
    const std::string bytes = TableBytes(result->table());
    if (reference.empty()) {
      reference = bytes;
    } else {
      EXPECT_EQ(bytes, reference) << "threads=" << threads;
    }
  }
}

TEST(EngineFanoutTest, RepeatedQueryReproducesIdenticalPerturbation) {
  // Per-call RNG streams are derived from (source seed, fragment), so
  // re-asking the same query must reproduce the identical noise — averaging
  // repeated answers gains an attacker nothing.
  auto sources = BuildSources(3);
  auto engine = BuildEngine(sources, 4);
  const auto query = MakeQuery("<select>patient_id</select><select>dob</select>");
  auto first = engine->Execute(query, mediator::QueryOptions{});
  auto second = engine->Execute(query, mediator::QueryOptions{});
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second->from_warehouse);  // warehouse disabled in BuildEngine
  EXPECT_EQ(TableBytes(first->table()), TableBytes(second->table()));
}

TEST(EngineFanoutTest, FaultySourcesAreSkippedWithReasons) {
  auto sources = BuildSources(8);
  // Source 2 fails transiently on every attempt; source 5 hangs well past
  // the per-source deadline.
  source::RemoteSource::FaultInjection erroring;
  erroring.error_rate = 1.0;
  erroring.seed = 7;
  sources[2]->set_fault_injection(erroring);
  source::RemoteSource::FaultInjection hanging;
  hanging.drop_rate = 1.0;
  hanging.hang_micros = 200'000;
  hanging.seed = 8;
  sources[5]->set_fault_injection(hanging);

  auto engine = BuildEngine(sources, 8);
  mediator::QueryOptions options;
  options.deadline_ms = 50;
  options.max_retries = 1;
  auto result = engine->Execute(MakeQuery("<select>patient_id</select>"), options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->sources_answered.size(), 6u);
  ASSERT_EQ(result->sources_skipped.size(), 2u);
  EXPECT_NE(result->sources_skipped.at("hospital2").find("injected fault"),
            std::string::npos);
  EXPECT_NE(result->sources_skipped.at("hospital5").find("DeadlineExceeded"),
            std::string::npos);
  EXPECT_GE(engine->metrics()->counter("engine.fragment_retries"), 1u);
  EXPECT_GE(engine->metrics()->counter("engine.fragments_deadline_exceeded"), 1u);
}

TEST(EngineFanoutTest, QuorumEnforcement) {
  auto sources = BuildSources(4);
  source::RemoteSource::FaultInjection erroring;
  erroring.error_rate = 1.0;
  sources[0]->set_fault_injection(erroring);
  auto engine = BuildEngine(sources, 4);
  const auto query = MakeQuery("<select>patient_id</select>");

  mediator::QueryOptions strict;
  strict.min_sources = 4;
  auto refused = engine->Execute(query, strict);
  ASSERT_FALSE(refused.ok());
  EXPECT_TRUE(refused.status().IsUnavailable());
  EXPECT_NE(refused.status().message().find("quorum"), std::string::npos);
  EXPECT_NE(refused.status().message().find("hospital0"), std::string::npos);

  mediator::QueryOptions relaxed;
  relaxed.min_sources = 3;
  auto served = engine->Execute(query, relaxed);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_EQ(served->sources_answered.size(), 3u);
}

TEST(EngineFanoutTest, AllSourcesDownIsUnavailableNotPrivacyViolation) {
  // Every source failing transiently is a transport failure, not a privacy
  // verdict: the caller should see kUnavailable (retryable) and the per-source
  // reasons, never a misleading PrivacyViolation.
  auto sources = BuildSources(3);
  source::RemoteSource::FaultInjection erroring;
  erroring.error_rate = 1.0;
  for (auto& s : sources) s->set_fault_injection(erroring);
  auto engine = BuildEngine(sources, 4);
  auto result =
      engine->Execute(MakeQuery("<select>patient_id</select>"), mediator::QueryOptions{});
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsUnavailable()) << result.status().ToString();
  EXPECT_NE(result.status().message().find("hospital1"), std::string::npos);
}

TEST(EngineFanoutTest, SerialModeStillDegradesGracefully) {
  // worker_threads == 0: no pool, but retry and error degradation still work
  // (deadlines cannot preempt an in-line call; they only bound retries).
  auto sources = BuildSources(3);
  source::RemoteSource::FaultInjection erroring;
  erroring.error_rate = 1.0;
  sources[1]->set_fault_injection(erroring);
  auto engine = BuildEngine(sources, 0);
  auto result =
      engine->Execute(MakeQuery("<select>patient_id</select>"), mediator::QueryOptions{});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->sources_answered.size(), 2u);
  EXPECT_EQ(result->sources_skipped.count("hospital1"), 1u);
}

TEST(EngineFanoutTest, RequesterOverrideReachesHistory) {
  auto sources = BuildSources(2);
  auto engine = BuildEngine(sources, 2);
  mediator::QueryOptions options;
  options.requester = "analyst";  // the RBAC-known identity
  // The query self-claims a different requester; the override wins.
  auto q = source::PiqlQuery::Parse(
      "<query requester=\"impostor\" purpose=\"research\" maxLoss=\"0.95\">"
      "<select>patient_id</select></query>");
  ASSERT_TRUE(q.ok());
  auto result = engine->Execute(*q, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(engine->history()->ForRequester("analyst").size(), 1u);
  EXPECT_EQ(engine->history()->ForRequester("impostor").size(), 0u);
}

TEST(EngineFanoutTest, PerQueryWarehouseOptOut) {
  auto sources = BuildSources(2);
  mediator::MediationEngine::Options engine_options;
  engine_options.max_combined_loss = 0.95;
  engine_options.max_cumulative_loss = 1e9;
  engine_options.enable_warehouse = true;
  mediator::MediationEngine engine(engine_options);
  for (const auto& src : sources) {
    ASSERT_TRUE(engine.RegisterSource(src.get()).ok());
  }
  ASSERT_TRUE(engine.GenerateMediatedSchema("k").ok());
  const auto query = MakeQuery("<select>patient_id</select>");

  mediator::QueryOptions live;
  live.allow_warehouse = false;
  ASSERT_TRUE(engine.Execute(query, live).ok());
  auto again = engine.Execute(query, live);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again->from_warehouse);  // opted out: no lookup, no Put

  mediator::QueryOptions cached;
  ASSERT_TRUE(engine.Execute(query, cached).ok());  // populates
  auto hit = engine.Execute(query, cached);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit->from_warehouse);
}

TEST(EngineFanoutTest, ConcurrentExecuteCallersShareOneEngine) {
  auto sources = BuildSources(4, /*latency_micros=*/200);
  auto engine = BuildEngine(sources, 8);
  constexpr int kCallers = 8;
  std::vector<std::thread> callers;
  std::atomic<int> ok_count{0};
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&engine, &ok_count, c] {
      // Distinct WHERE per caller so queries (and history entries) differ.
      const auto query = MakeQuery("<select>patient_id</select><where>sex = '" +
                                   std::string(c % 2 == 0 ? "F" : "M") +
                                   "'</where>");
      // Callers share two query shapes; force private executions so each
      // caller exercises its own fan-out (coalescing has its own tests).
      mediator::QueryOptions opts;
      opts.coalesce = false;
      auto result = engine->Execute(query, opts);
      if (result.ok() && result->table().num_rows() > 0) ok_count.fetch_add(1);
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(ok_count.load(), kCallers);
  EXPECT_EQ(engine->history()->size(), static_cast<size_t>(kCallers));
  EXPECT_EQ(engine->metrics()->counter("engine.queries"),
            static_cast<uint64_t>(kCallers));
}

// --- Registration API ---

TEST(RegistrationTest, DuplicateOwnerRejected) {
  auto sources = BuildSources(2);
  mediator::MediationEngine engine;
  ASSERT_TRUE(engine.RegisterSource(sources[0].get()).ok());
  auto tables = core::ClinicalScenario::MakePatientTables(5, 0.5, 9);
  source::RemoteSource dup("hospital0", "other", std::move(tables.hospital));
  const Status status = engine.RegisterSource(&dup);
  EXPECT_TRUE(status.IsAlreadyExists()) << status.ToString();
  EXPECT_EQ(engine.SourceOwners().size(), 1u);
}

TEST(RegistrationTest, RegistrationAfterInitializeRejected) {
  auto sources = BuildSources(2);
  mediator::MediationEngine engine;
  ASSERT_TRUE(engine.RegisterSource(sources[0].get()).ok());
  ASSERT_TRUE(engine.GenerateMediatedSchema("k").ok());
  const Status status = engine.RegisterSource(sources[1].get());
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(engine.SourceOwners().size(), 1u);
  EXPECT_FALSE(engine.RegisterSource(nullptr).ok());
}

TEST(RegistrationTest, FacadeSurfacesRegistrationFailures) {
  core::PrivateIye system;
  auto tables1 = core::ClinicalScenario::MakePatientTables(5, 0.5, 1);
  auto tables2 = core::ClinicalScenario::MakePatientTables(5, 0.5, 2);
  ASSERT_NE(system.AddSource("hmo", "patients", std::move(tables1.hospital)), nullptr);
  EXPECT_EQ(system.AddSource("hmo", "patients2", std::move(tables2.hospital)), nullptr);

  auto tables3 = core::ClinicalScenario::MakePatientTables(5, 0.5, 3);
  source::RemoteSource external("clinic", "patients", std::move(tables3.hospital));
  EXPECT_TRUE(system.AddExternalSource(&external).ok());
  EXPECT_TRUE(system.AddExternalSource(&external).IsAlreadyExists());
  ASSERT_TRUE(system.Initialize().ok());
  auto tables4 = core::ClinicalScenario::MakePatientTables(5, 0.5, 4);
  source::RemoteSource late("late", "patients", std::move(tables4.hospital));
  EXPECT_FALSE(system.AddExternalSource(&late).ok());
}

}  // namespace
}  // namespace piye
