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
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/executor.h"
#include "common/sync.h"
#include "common/trace.h"
#include "core/private_iye.h"
#include "core/scenario.h"
#include "mediator/engine.h"
#include "relational/sql.h"
#include "relational/table_codec.h"
#include "reference/faulty_source.h"

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
}

TEST(ExecutorTest, SubmitPropagatesExceptionsThroughFuture) {
  Executor pool(1);
  auto f = pool.Submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
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
  auto timings = t.TakeTimings();
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
  EXPECT_EQ(t.TakeTimings().size(), 1u);
}

TEST(TraceTest, HistogramStatsAndPercentiles) {
  trace::LatencyCell cell;
  for (double v : {1.0, 2.0, 4.0, 8.0, 1000.0}) cell.Record(v);
  const trace::Histogram h = cell.Snapshot();
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum_micros(), 1015.0);
  EXPECT_DOUBLE_EQ(h.min_micros(), 1.0);
  EXPECT_DOUBLE_EQ(h.max_micros(), 1000.0);
  EXPECT_LE(h.PercentileMicros(0.5), 8.0);
  EXPECT_DOUBLE_EQ(h.PercentileMicros(1.0), 1000.0);
}

TEST(TraceTest, RegistryCountersAndJson) {
  trace::MetricsRegistry registry;
  trace::Bump(registry.RegisterCounter("queries"));
  trace::Bump(registry.RegisterCounter("queries"), 2);
  registry.RegisterLatency("stage.fragment")->Record(123.0);
  EXPECT_EQ(registry.counter("queries"), 3u);
  EXPECT_EQ(registry.counter("missing"), 0u);
  EXPECT_EQ(registry.latency("stage.fragment").count(), 1u);
  const std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"queries\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"stage.fragment\""), std::string::npos);
  EXPECT_NE(json.find("\"p95_micros\""), std::string::npos);
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
  trace::Bump(registry.RegisterCounter(quoted), 3);
  trace::Bump(registry.RegisterCounter(slashed), 7);
  trace::Bump(registry.RegisterCounter(multiline));
  trace::Bump(registry.RegisterCounter(control));
  registry.RegisterLatency(quoted)->Record(42.0);

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
  registry.RegisterLatency("declared.but.never.recorded");
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

TEST(TraceTest, ToJsonSortsNamesRegardlessOfRegistrationOrder) {
  trace::MetricsRegistry registry;
  trace::Bump(registry.RegisterCounter("stage.c"), 3);
  trace::Bump(registry.RegisterCounter("engine.b"), 2);
  trace::Bump(registry.RegisterCounter("engine.a"), 1);
  registry.RegisterLatency("stage.z")->Record(3.0);
  registry.RegisterLatency("stage.y");
  EXPECT_EQ(registry.ToJson(),
            "{\"counters\": {\"engine.a\": 1, \"engine.b\": 2, \"stage.c\": 3}, "
            "\"latencies\": {"
            "\"stage.y\": {\"count\": 0, \"sum_micros\": 0.000, "
            "\"min_micros\": 0.000, \"max_micros\": 0.000, "
            "\"mean_micros\": 0.000, \"p50_micros\": 0.000, "
            "\"p95_micros\": 0.000, \"p99_micros\": 0.000}, "
            "\"stage.z\": {\"count\": 1, \"sum_micros\": 3.000, "
            "\"min_micros\": 3.000, \"max_micros\": 3.000, "
            "\"mean_micros\": 3.000, \"p50_micros\": 3.000, "
            "\"p95_micros\": 3.000, \"p99_micros\": 3.000}}}");
}

TEST(TraceTest, RegistryIsSafeForConcurrentWriters) {
  trace::MetricsRegistry registry;
  Executor pool(4);
  std::vector<std::future<void>> writers;
  for (size_t i = 0; i < 64; ++i) {
    writers.push_back(pool.Submit([&registry, i] {
      trace::Bump(registry.RegisterCounter("c"));
      registry.RegisterLatency("l")->Record(static_cast<double>(i));
    }));
  }
  for (auto& w : writers) w.get();
  EXPECT_EQ(registry.counter("c"), 64u);
  EXPECT_EQ(registry.latency("l").count(), 64u);
}

TEST(TraceTest, SlottedCellsSumExactlyWithMoreThreadsThanSlots) {
  // More recording threads than slots, so some threads share a slot. Samples
  // are the integers 1..N (exact in a double sum); a concurrent reader's
  // snapshots must never show a count without its min/max, or min > max.
  trace::MetricsRegistry registry;
  trace::MetricsRegistry::Counter* counter = registry.RegisterCounter("c");
  trace::LatencyCell* latency = registry.RegisterLatency("l");
  constexpr size_t kThreads = trace::kMetricSlots + 4;
  constexpr size_t kPerThread = 2000;
  constexpr double kLargest = static_cast<double>(kThreads * kPerThread);

  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load()) {
      const trace::Histogram h = registry.latency("l");
      if (h.count() == 0) {
        EXPECT_EQ(h.min_micros(), 0.0);
        EXPECT_EQ(h.max_micros(), 0.0);
        continue;
      }
      EXPECT_GE(h.min_micros(), 1.0);
      EXPECT_LE(h.min_micros(), h.max_micros());
      EXPECT_LE(h.max_micros(), kLargest);
    }
  });
  std::vector<std::thread> writers;
  for (size_t t = 0; t < kThreads; ++t) {
    writers.emplace_back([counter, latency, t] {
      for (size_t i = 0; i < kPerThread; ++i) {
        trace::Bump(counter, t + 1);
        latency->Record(static_cast<double>(t * kPerThread + i + 1));
      }
    });
  }
  for (auto& w : writers) w.join();
  done.store(true);
  reader.join();

  EXPECT_EQ(registry.counter("c"), kPerThread * kThreads * (kThreads + 1) / 2);
  const trace::Histogram h = registry.latency("l");
  EXPECT_EQ(h.count(), kThreads * kPerThread);
  EXPECT_EQ(h.sum_micros(), kLargest * (kLargest + 1) / 2);
  EXPECT_EQ(h.min_micros(), 1.0);
  EXPECT_EQ(h.max_micros(), kLargest);
  uint64_t bucketed = 0;
  for (uint64_t n : h.buckets()) bucketed += n;
  EXPECT_EQ(bucketed, h.count());
}

TEST(TraceTest, OneThreadSequenceKeepsItsJsonBytes) {
  // Recorded from one thread, every sample lands in one slot, and the merged
  // JSON is byte for byte what one unsplit cell gives for this sequence.
  trace::MetricsRegistry registry;
  trace::Bump(registry.RegisterCounter("warehouse.hits"), 3);
  for (int i = 0; i < 7; ++i) trace::Bump(registry.RegisterCounter("engine.queries"));
  trace::Bump(registry.RegisterCounter("warehouse.hits"), 1000);
  registry.RegisterCounter("engine.shed");
  trace::LatencyCell* a = registry.RegisterLatency("stage.a");
  for (double v : {0.5, 1.25, 3.0, 17.75, 1000.125, 2.5e6}) a->Record(v);
  trace::LatencyCell* b = registry.RegisterLatency("stage.b");
  for (int i = 0; i < 100; ++i) b->Record(i * 0.37);
  registry.RegisterLatency("stage.c");
  EXPECT_EQ(registry.ToJson(),
            "{\"counters\": {\"engine.queries\": 7, \"engine.shed\": 0, "
            "\"warehouse.hits\": 1003}, \"latencies\": {"
            "\"stage.a\": {\"count\": 6, \"sum_micros\": 2501022.625, "
            "\"min_micros\": 0.500, \"max_micros\": 2500000.000, "
            "\"mean_micros\": 416837.104, \"p50_micros\": 4.000, "
            "\"p95_micros\": 2500000.000, \"p99_micros\": 2500000.000}, "
            "\"stage.b\": {\"count\": 100, \"sum_micros\": 1831.500, "
            "\"min_micros\": 0.000, \"max_micros\": 36.630, "
            "\"mean_micros\": 18.315, \"p50_micros\": 32.000, "
            "\"p95_micros\": 36.630, \"p99_micros\": 36.630}, "
            "\"stage.c\": {\"count\": 0, \"sum_micros\": 0.000, "
            "\"min_micros\": 0.000, \"max_micros\": 0.000, "
            "\"mean_micros\": 0.000, \"p50_micros\": 0.000, "
            "\"p95_micros\": 0.000, \"p99_micros\": 0.000}}}");
}

// --- Engine fan-out over homogeneous patient sources ---

std::string TableBytes(const relational::Table& t) {
  return relational::EncodeTable(t);
}

using source::faultref::FaultySource;

source::faultref::Fleet BuildSources(size_t n, uint64_t latency_micros = 0) {
  source::faultref::Fleet sources;
  for (size_t i = 0; i < n; ++i) {
    auto tables = core::ClinicalScenario::MakePatientTables(20, 0.3, 100 + i);
    auto src = std::make_unique<source::RemoteSource>(
        "hospital" + std::to_string(i), "patients", std::move(tables.hospital),
        /*seed=*/i + 1);
    core::ClinicalScenario::ApplyPatientPolicies(src.get());
    sources.Add(std::move(src), {.latency_micros = latency_micros});
  }
  return sources;
}

std::unique_ptr<mediator::MediationEngine> BuildEngine(
    const source::faultref::Fleet& sources, size_t worker_threads) {
  mediator::MediationEngine::Options options;
  options.max_combined_loss = 0.95;
  options.max_cumulative_loss = 1e9;
  options.worker_threads = worker_threads;
  auto engine = std::make_unique<mediator::MediationEngine>(options);
  for (const auto& src : sources.faulty) {
    EXPECT_TRUE(engine->RegisterSource(src.get()).ok());
  }
  EXPECT_TRUE(engine->GenerateMediatedSchema("shared-key").ok());
  return engine;
}

// Every engine test here measures live fan-out, never a warehouse hit.
mediator::QueryOptions LiveOptions() { return {.allow_warehouse = false}; }

source::PiqlQuery MakeQuery(const std::string& body) {
  auto q = source::PiqlQuery::Parse(
      "<query requester=\"analyst\" purpose=\"research\" maxLoss=\"0.95\">" + body +
      "</query>");
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  return *q;
}

// --- FaultySource: the misbehaving source the engine tests run against ---

/// One character per call of `source`: '.' answered, 'E' an injected fault,
/// 'D' an injected drop.
std::string FaultSchedule(const FaultySource& source, int calls) {
  const auto query = MakeQuery("<select>patient_id</select>");
  std::string out;
  for (int i = 0; i < calls; ++i) {
    auto result = source.ExecuteFragment(query);
    const std::string message = result.ok() ? "" : result.status().message();
    out += result.ok()                                         ? '.'
           : message.find("injected drop") != std::string::npos  ? 'D'
           : message.find("injected fault") != std::string::npos ? 'E'
                                                                 : '?';
  }
  return out;
}

TEST(FaultySourceTest, DrawsTheRecordedScheduleForEachSeed) {
  // Recorded from the fault hook that RemoteSource carried before this
  // decorator replaced it: each seed fails and hangs on the same calls.
  struct Case {
    uint64_t seed;
    double error_rate;
    double drop_rate;
    const char* schedule;
  };
  const Case cases[] = {
      {7, 0.25, 0.0, ".E.E.......EE.........E.....EE.EE..E....E.E.EE.."},
      {42, 0.0, 0.3, "D.D.D.....D..D........D...D.....D..DD...D..D.D.."},
      {1003, 0.25, 0.1, "..E.....ED..EDE.....DE..E..........DD....E......"},
      {0, 0.5, 0.2, "E.EE.ED.E....EE.DDED.E..EE..E.EEDDE...D.EEDEDDEE"},
      {11, 0.1, 0.1, "D....D..E....D.......D...................E....DD"},
  };
  auto sources = BuildSources(1);
  for (const Case& c : cases) {
    FaultySource faulty(sources.sources[0].get(), {.error_rate = c.error_rate,
                                                   .drop_rate = c.drop_rate,
                                                   .hang_micros = 0,
                                                   .seed = c.seed});
    EXPECT_EQ(FaultSchedule(faulty, 48), c.schedule) << "seed " << c.seed;
  }
}

TEST(FaultySourceTest, SwappedPlansShareOneCallCounter) {
  // A pass-through plan draws nothing; the next plan resumes the count.
  // Recorded from the same old hook as above.
  auto sources = BuildSources(1);
  FaultySource& faulty = *sources.faulty[0];
  faulty.set_plan({.error_rate = 0.25, .hang_micros = 0, .seed = 7});
  EXPECT_EQ(FaultSchedule(faulty, 8), ".E.E....");
  faulty.set_plan({});
  EXPECT_EQ(FaultSchedule(faulty, 4), "....");
  faulty.set_plan({.drop_rate = 0.3, .hang_micros = 0, .seed = 42});
  EXPECT_EQ(FaultSchedule(faulty, 8), "..D..D..");
}

TEST(FaultySourceTest, PlanSwapWhileAnAbandonedCallHangs) {
  // Nobody waits for the hung call (its token never fires). While it
  // sleeps, the plan is healed and then broken differently: later calls see
  // each new plan, and the hung call ends with the plan it started under.
  auto sources = BuildSources(1);
  FaultySource& faulty = *sources.faulty[0];
  faulty.set_plan({.drop_rate = 1.0, .hang_micros = 300'000, .seed = 3});
  const auto query = MakeQuery("<select>patient_id</select>");
  std::atomic<bool> calling{false};
  Status hung_status;
  std::thread hung([&] {
    calling.store(true);
    hung_status = faulty.ExecuteFragment(query).status();
  });
  while (!calling.load()) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  faulty.set_plan({});
  EXPECT_EQ(FaultSchedule(faulty, 4), "....");
  faulty.set_plan({.error_rate = 1.0, .seed = 5});
  EXPECT_EQ(FaultSchedule(faulty, 2), "EE");
  hung.join();
  EXPECT_TRUE(hung_status.IsUnavailable()) << hung_status.ToString();
  EXPECT_NE(hung_status.message().find("injected drop: source 'hospital0'"),
            std::string::npos)
      << hung_status.ToString();
}

TEST(EngineFanoutTest, ParallelOutputIsByteIdenticalToSerial) {
  auto sources = BuildSources(6, /*latency_micros=*/1000);
  auto serial = BuildEngine(sources, /*worker_threads=*/1);
  auto parallel = BuildEngine(sources, /*worker_threads=*/8);
  const auto query = MakeQuery("<select>patient_id</select><select>sex</select>");
  auto rs = serial->Execute(query, LiveOptions());
  auto rp = parallel->Execute(query, LiveOptions());
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
  for (size_t threads : {1u, 2u, 8u}) {
    auto engine = BuildEngine(sources, threads);
    auto result = engine->Execute(query, LiveOptions());
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
  auto first = engine->Execute(query, LiveOptions());
  auto second = engine->Execute(query, LiveOptions());
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second->from_warehouse);  // LiveOptions skips the warehouse
  EXPECT_EQ(TableBytes(first->table()), TableBytes(second->table()));
}

TEST(EngineFanoutTest, FaultySourcesAreSkippedWithReasons) {
  auto sources = BuildSources(8);
  // Source 2 fails transiently on every attempt; source 5 hangs well past
  // the per-source deadline.
  FaultySource::Plan erroring;
  erroring.error_rate = 1.0;
  erroring.seed = 7;
  sources.faulty[2]->set_plan(erroring);
  FaultySource::Plan hanging;
  hanging.drop_rate = 1.0;
  hanging.hang_micros = 200'000;
  hanging.seed = 8;
  sources.faulty[5]->set_plan(hanging);

  auto engine = BuildEngine(sources, 8);
  mediator::QueryOptions options = LiveOptions();
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
  FaultySource::Plan erroring;
  erroring.error_rate = 1.0;
  sources.faulty[0]->set_plan(erroring);
  auto engine = BuildEngine(sources, 4);
  const auto query = MakeQuery("<select>patient_id</select>");

  mediator::QueryOptions strict = LiveOptions();
  strict.min_sources = 4;
  auto refused = engine->Execute(query, strict);
  ASSERT_FALSE(refused.ok());
  EXPECT_TRUE(refused.status().IsUnavailable());
  EXPECT_NE(refused.status().message().find("quorum"), std::string::npos);
  EXPECT_NE(refused.status().message().find("hospital0"), std::string::npos);

  mediator::QueryOptions relaxed = LiveOptions();
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
  FaultySource::Plan erroring;
  erroring.error_rate = 1.0;
  for (auto& s : sources.faulty) s->set_plan(erroring);
  auto engine = BuildEngine(sources, 4);
  auto result =
      engine->Execute(MakeQuery("<select>patient_id</select>"), LiveOptions());
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsUnavailable()) << result.status().ToString();
  EXPECT_NE(result.status().message().find("hospital1"), std::string::npos);
}

TEST(EngineFanoutTest, DefaultEngineShedsAPersistentlyFailingSource) {
  // Circuit breakers are always on: with nothing but default options, a
  // source that fails every call is shed after `failure_threshold`
  // consecutive failures, and Health reports its breaker open.
  auto sources = BuildSources(3);
  FaultySource::Plan erroring;
  erroring.error_rate = 1.0;
  sources.faulty[1]->set_plan(erroring);
  mediator::MediationEngine engine;
  for (const auto& src : sources.faulty) ASSERT_TRUE(engine.RegisterSource(src.get()).ok());
  ASSERT_TRUE(engine.GenerateMediatedSchema("shared-key").ok());
  const auto query = MakeQuery("<select>patient_id</select>");

  const uint32_t threshold = mediator::CircuitBreakerConfig{}.failure_threshold;
  for (uint32_t i = 0; i < threshold; ++i) {
    auto result = engine.Execute(query, LiveOptions());
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_NE(result->sources_skipped.at("hospital1").find("injected fault"),
              std::string::npos)
        << "query " << i;
  }
  auto health = engine.Health();
  ASSERT_EQ(health.sources.size(), 3u);
  for (const auto& src : health.sources) {
    EXPECT_EQ(src.breaker_state, src.owner == "hospital1" ? "open" : "closed")
        << src.owner;
  }
  EXPECT_EQ(health.sources_admitting, 2u);

  // The next query sheds the source without dialing it.
  const uint64_t attempts = engine.metrics()->counter("engine.fragment_attempts");
  auto shed = engine.Execute(query, LiveOptions());
  ASSERT_TRUE(shed.ok()) << shed.status().ToString();
  EXPECT_NE(shed->sources_skipped.at("hospital1").find("circuit breaker open"),
            std::string::npos);
  EXPECT_EQ(shed->sources_answered.size(), 2u);
  EXPECT_EQ(engine.metrics()->counter("engine.fragment_attempts"), attempts + 2);
  health = engine.Health();
  EXPECT_EQ(health.sources[1].owner, "hospital1");
  EXPECT_EQ(health.sources[1].shed_total, 1u);
  EXPECT_EQ(health.sources[1].opened_total, 1u);

  // A query that bypasses the breakers still dials the failing source.
  mediator::QueryOptions must_try = LiveOptions();
  must_try.bypass_circuit_breaker = true;
  auto tried = engine.Execute(query, must_try);
  ASSERT_TRUE(tried.ok()) << tried.status().ToString();
  EXPECT_NE(tried->sources_skipped.at("hospital1").find("injected fault"),
            std::string::npos);
}

TEST(EngineFanoutTest, RequesterOverrideReachesHistory) {
  auto sources = BuildSources(2);
  auto engine = BuildEngine(sources, 2);
  mediator::QueryOptions options = LiveOptions();
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

TEST(EngineFanoutTest, RequesterOverrideKeysTheWarehouse) {
  // The warehouse and single-flight key on the *effective* query: an answer
  // materialized for the query's self-claimed requester must never be served
  // to a different, transport-authenticated one.
  auto sources = BuildSources(2);
  auto engine = BuildEngine(sources, 2);
  const auto query = MakeQuery("<select>patient_id</select>");  // as "analyst"
  auto own = engine->Execute(query);
  ASSERT_TRUE(own.ok()) << own.status().ToString();
  ASSERT_EQ(engine->warehouse()->size(), 1u);
  mediator::QueryOptions as_cdc;
  as_cdc.requester = "cdc";
  auto other = engine->Execute(query, as_cdc);
  ASSERT_TRUE(other.ok()) << other.status().ToString();
  EXPECT_FALSE(other->from_warehouse);
  EXPECT_EQ(engine->history()->ForRequester("cdc").size(), 1u);
}

/// One source per row list, each releasing patient_id and ward exactly.
source::faultref::Fleet WardSources(
    const std::vector<std::vector<std::pair<std::string, std::string>>>& rows) {
  source::faultref::Fleet sources;
  for (size_t i = 0; i < rows.size(); ++i) {
    relational::Table table(relational::Schema{
        {"patient_id", relational::ColumnType::kString},
        {"ward", relational::ColumnType::kString}});
    for (const auto& [id, ward] : rows[i]) {
      table.AppendRowUnchecked(
          {relational::Value::Str(id), relational::Value::Str(ward)});
    }
    auto src = std::make_unique<source::RemoteSource>(
        "clinic" + std::to_string(i), "visits", std::move(table), /*seed=*/i + 1);
    core::ClinicalScenario::ApplyPatientPolicies(src.get());
    sources.Add(std::move(src));
  }
  return sources;
}

TEST(EngineFanoutTest, WarehouseKeyCoversDedupKeys) {
  // p1 appears at both clinics in different wards: deduplicating on
  // patient_id keeps one of its rows, whole-row dedup keeps both. An answer
  // warmed under one dedup setting must not be served under the other.
  auto sources = WardSources({{{"p1", "east"}, {"p2", "west"}},
                              {{"p1", "north"}, {"p3", "east"}}});
  auto engine = BuildEngine(sources, 2);
  const auto query =
      MakeQuery("<select>patient_id</select><select>ward</select>");
  auto by_patient = engine->Execute(query, {.dedup_keys = {"patient_id"}});
  ASSERT_TRUE(by_patient.ok()) << by_patient.status().ToString();
  EXPECT_EQ(by_patient->table().num_rows(), 3u);
  auto whole_row = engine->Execute(query);
  ASSERT_TRUE(whole_row.ok()) << whole_row.status().ToString();
  EXPECT_FALSE(whole_row->from_warehouse);
  EXPECT_EQ(whole_row->table().num_rows(), 4u);
  // Each setting is served its own entry from then on.
  auto again = engine->Execute(query, {.dedup_keys = {"patient_id"}});
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->from_warehouse);
  EXPECT_EQ(again->table().num_rows(), 3u);
}

TEST(EngineFanoutTest, WarehouseKeyCoversTheQuorum) {
  // With one of three sources down, a 2-of-3 answer is released and
  // materialized. A later caller demanding all three must get the quorum
  // failure, not the cached partial answer.
  auto sources = BuildSources(3);
  FaultySource::Plan erroring;
  erroring.error_rate = 1.0;
  sources.faulty[0]->set_plan(erroring);
  auto engine = BuildEngine(sources, 3);
  const auto query = MakeQuery("<select>patient_id</select>");
  auto partial = engine->Execute(query);
  ASSERT_TRUE(partial.ok()) << partial.status().ToString();
  EXPECT_EQ(partial->sources_answered.size(), 2u);
  ASSERT_EQ(engine->warehouse()->size(), 1u);

  auto strict = engine->Execute(query, {.min_sources = 3});
  ASSERT_FALSE(strict.ok());
  EXPECT_TRUE(strict.status().IsUnavailable()) << strict.status().ToString();
  EXPECT_NE(strict.status().message().find("quorum"), std::string::npos);
  // min_sources 0 and 1 accept the same answers, so they share the entry.
  auto relaxed = engine->Execute(query, {.min_sources = 1});
  ASSERT_TRUE(relaxed.ok());
  EXPECT_TRUE(relaxed->from_warehouse);
}

TEST(EngineFanoutTest, MetricsStayExactUnderConcurrentHitsAndMisses) {
  // Four threads mix warehouse hits and misses (first asks, and concurrent
  // first asks that coalesce). Every counter must equal the operation
  // totals the threads themselves observed.
  auto sources = BuildSources(2);
  auto engine = BuildEngine(sources, 4);
  std::vector<source::PiqlQuery> queries;
  for (const char* sex : {"F", "M"}) {
    for (const char* column : {"patient_id", "dob", "zip", "diagnosis"}) {
      queries.push_back(MakeQuery(std::string("<select>") + column +
                                  "</select><where>sex = '" + sex + "'</where>"));
    }
  }
  constexpr size_t kThreads = 4;
  constexpr size_t kPerThread = 64;
  std::atomic<uint64_t> answered{0}, from_warehouse{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = 0; i < kPerThread; ++i) {
        const auto& query = queries[(i * 5 + t * 3) % queries.size()];
        // Two requesters per query: distinct keys that never coalesce.
        auto result = engine->Execute(
            query, {.requester = (i + t) % 2 == 0 ? "analyst" : "cdc"});
        if (!result.ok()) continue;
        answered.fetch_add(1);
        if (result->from_warehouse) from_warehouse.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();

  const uint64_t total = kThreads * kPerThread;
  const trace::MetricsRegistry& m = *engine->metrics();
  EXPECT_EQ(answered.load(), total);
  EXPECT_GT(from_warehouse.load(), 0u);
  EXPECT_LT(from_warehouse.load(), total);
  EXPECT_EQ(m.counter("engine.queries"), total);
  EXPECT_EQ(m.counter("engine.admitted"), total);
  EXPECT_EQ(engine->Health().admitted_total, total);
  EXPECT_EQ(engine->Health().admission_inflight, 0u);
  EXPECT_EQ(m.latency("stage.warehouse-lookup").count(), total);
  EXPECT_EQ(m.counter("engine.warehouse_hits"), from_warehouse.load());
  EXPECT_EQ(m.counter("warehouse.hits"), from_warehouse.load());
  EXPECT_EQ(engine->warehouse()->hits(), from_warehouse.load());
  EXPECT_EQ(m.counter("warehouse.misses"), total - from_warehouse.load());
  EXPECT_EQ(m.counter("engine.singleflight_leaders") +
                m.counter("engine.singleflight_coalesced"),
            total - from_warehouse.load());
}

TEST(EngineFanoutTest, PerQueryWarehouseOptOut) {
  auto sources = BuildSources(2);
  mediator::MediationEngine::Options engine_options;
  engine_options.max_combined_loss = 0.95;
  engine_options.max_cumulative_loss = 1e9;
  mediator::MediationEngine engine(engine_options);
  for (const auto& src : sources.faulty) {
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
      mediator::QueryOptions opts = LiveOptions();
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

// --- A source's effective-table snapshot and lazy indexes under load ---

std::unique_ptr<source::RemoteSource> ScanSource() {
  auto tables = core::ClinicalScenario::MakePatientTables(2000, 0.3, 41);
  auto src = std::make_unique<source::RemoteSource>("hospital", "patients",
                                                    std::move(tables.hospital), 3);
  core::ClinicalScenario::ApplyPatientPolicies(src.get());
  return src;
}

std::vector<source::PiqlQuery> ScanQueries() {
  std::vector<source::PiqlQuery> queries;
  for (const char* body :
       {"<select>patient_id</select><select>dob</select>",
        "<aggregate func=\"COUNT\" attribute=\"patient_id\"/>"}) {
    for (const char* window : {"dob &gt;= '1950-01-01' AND dob &lt; '1955-01-01'",
                               "dob &gt;= '1930' AND dob &lt; '1990'"}) {
      auto q = source::PiqlQuery::Parse(
          std::string("<query requester=\"analyst\" purpose=\"healthcare\" "
                      "maxLoss=\"1.0\">") +
          body + "<where>" + window + "</where></query>");
      EXPECT_TRUE(q.ok()) << q.status().ToString();
      queries.push_back(*q);
    }
  }
  return queries;
}

std::string FragmentBytes(const Result<source::FederatedSource::FragmentResult>& r) {
  return r.ok() ? TableBytes(r->table) : r.status().ToString();
}

policy::PrivacyView WomenOnlyView() {
  policy::PrivacyView view("women", "patients");
  for (const char* c : {"patient_id", "dob", "zip", "sex", "diagnosis"}) {
    view.AddVisibleColumn(c);
  }
  view.set_row_filter(*relational::ParseExpression("sex = 'F'"));
  return view;
}

/// Eight callers released together at `src`, each asking every query three
/// times; returns every answer, caller by caller.
std::vector<std::vector<std::string>> ConcurrentAnswers(
    const source::RemoteSource& src, const std::vector<source::PiqlQuery>& queries) {
  constexpr int kCallers = 8;
  Mutex mu;
  CondVar go;
  bool released = false;
  std::vector<std::vector<std::string>> answers(kCallers);
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      {
        MutexLock lock(mu);
        while (!released) go.Wait(lock);
      }
      for (int round = 0; round < 3; ++round) {
        for (size_t q = 0; q < queries.size(); ++q) {
          // Callers start on different queries so cold builds overlap.
          const auto& query = queries[(q + static_cast<size_t>(c)) % queries.size()];
          answers[c].push_back(FragmentBytes(src.ExecuteFragment(query)));
        }
      }
    });
  }
  {
    MutexLock lock(mu);
    released = true;
  }
  go.NotifyAll();
  for (auto& t : callers) t.join();
  return answers;
}

TEST(SourceSnapshotTest, ConcurrentColdStartsBuildEachIndexOnce) {
  const auto queries = ScanQueries();
  auto expect_answers = [&queries](const source::RemoteSource& reference,
                                   const std::vector<std::vector<std::string>>& got) {
    std::vector<std::string> want;
    for (const auto& q : queries) {
      want.push_back(FragmentBytes(reference.ExecuteFragment(q)));
    }
    for (size_t c = 0; c < got.size(); ++c) {
      ASSERT_EQ(got[c].size(), 3 * queries.size());
      for (size_t i = 0; i < got[c].size(); ++i) {
        const size_t q = (i % queries.size() + c) % queries.size();
        EXPECT_EQ(got[c][i], want[q]) << "caller " << c << " answer " << i;
      }
    }
  };

  auto src = ScanSource();
  auto reference = ScanSource();
  const auto cold = ConcurrentAnswers(*src, queries);
  expect_answers(*reference, cold);
  // Every query bounds dob: one index, built once, for this generation.
  EXPECT_EQ(src->scan_stats().index_builds, 1u);
  EXPECT_EQ(src->scan_stats().full_scans, 0u);
  EXPECT_EQ(src->scan_stats().index_scans, 8u * 3 * queries.size());

  // A new view is a new generation: a new snapshot and one rebuild.
  ASSERT_TRUE(src->mutable_policies()->AddView("hospital", WomenOnlyView()).ok());
  ASSERT_TRUE(reference->mutable_policies()->AddView("hospital", WomenOnlyView()).ok());
  const auto viewed = ConcurrentAnswers(*src, queries);
  expect_answers(*reference, viewed);
  EXPECT_EQ(src->scan_stats().index_builds, 2u);
  EXPECT_NE(cold[0][0], viewed[0][0]);
}

// --- Registration API ---

TEST(RegistrationTest, DuplicateOwnerRejected) {
  auto fleet = BuildSources(2);
  mediator::MediationEngine engine;
  ASSERT_TRUE(engine.RegisterSource(fleet.sources[0].get()).ok());
  auto tables = core::ClinicalScenario::MakePatientTables(5, 0.5, 9);
  source::RemoteSource dup("hospital0", "other", std::move(tables.hospital));
  const Status status = engine.RegisterSource(&dup);
  EXPECT_TRUE(status.IsAlreadyExists()) << status.ToString();
  EXPECT_EQ(engine.SourceOwners().size(), 1u);
}

TEST(RegistrationTest, RegistrationAfterInitializeRejected) {
  auto fleet = BuildSources(2);
  mediator::MediationEngine engine;
  ASSERT_TRUE(engine.RegisterSource(fleet.sources[0].get()).ok());
  ASSERT_TRUE(engine.GenerateMediatedSchema("k").ok());
  const Status status = engine.RegisterSource(fleet.sources[1].get());
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
