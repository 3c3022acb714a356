// End-to-end benchmark of the PRIVATE-IYE mediation path.
//
// Run through the wrapper, which builds this program first:
//   python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// One run, in one process: seeded inputs are generated (and, for
// emergency-mix, a trust anchor is seeded through the public API), the
// serving stack is set up several times (setup_s is the median), a
// closed-loop timed phase runs a fixed amount of work, and a single-client
// replay of the same stream on a fresh stack checks every answer's digest.
// With --trace 1 a second, traced timed phase gives the per-layer split and
// the tracing overhead. The last line of stdout is the JSON result.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <latch>
#include <thread>

#include "common/logging.h"
#include "perfbench.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using piye::relational::ColumnType;
using piye::relational::Table;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool small = false;     ///< reduced sizes, for the self-tests
  std::string git_sha = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--small") {
      args->small = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--git-sha") {
      args->git_sha = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0;
}

/// A private scratch directory under .bench_run/ in the working directory,
/// removed with everything in it when the run ends. Paths stay relative so
/// Unix socket paths stay short wherever the checkout lives.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& workload) {
    fs::create_directories(".bench_run");
    std::string tmpl = ".bench_run/" + workload + "-XXXXXX";
    if (::mkdtemp(tmpl.data()) != nullptr) path_ = tmpl;
  }
  ~ScratchDir() {
    std::error_code ec;
    if (!path_.empty()) fs::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string& path() const { return path_; }
  /// A fresh subdirectory.
  std::string Sub(const std::string& name) const {
    const std::string dir = path_ + "/" + name;
    fs::create_directories(dir);
    return dir;
  }

 private:
  std::string path_;
};

// --- Answer digests ---------------------------------------------------------

constexpr uint64_t kFnvOffset = 14695981039346656037ull;

uint64_t Fnv(uint64_t h, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 1099511628211ull;
  return h;
}

uint64_t Fnv(uint64_t h, std::string_view s) {
  const uint64_t len = s.size();
  return Fnv(Fnv(h, &len, sizeof(len)), s.data(), s.size());
}

/// Digest of an answer's schema and every cell, bit-exact.
uint64_t TableDigest(const Table& table) {
  uint64_t h = kFnvOffset;
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const auto& col = table.col(c);
    h = Fnv(h, table.schema().column(c).name);
    const auto type = static_cast<uint8_t>(col.type());
    h = Fnv(h, &type, 1);
    for (size_t r = 0; r < col.size(); ++r) {
      if (col.IsNull(r)) {
        h = Fnv(h, "\0", 1);
        continue;
      }
      switch (col.type()) {
        case ColumnType::kInt64: {
          const int64_t v = col.IntAt(r);
          h = Fnv(h, &v, sizeof(v));
          break;
        }
        case ColumnType::kDouble: {
          const double v = col.RealAt(r);
          h = Fnv(h, &v, sizeof(v));
          break;
        }
        case ColumnType::kBool: {
          const uint8_t v = col.BoolAt(r) ? 1 : 0;
          h = Fnv(h, &v, 1);
          break;
        }
        case ColumnType::kString:
          h = Fnv(h, col.StrAt(r));
          break;
      }
    }
  }
  return h;
}

// --- Running operation streams ----------------------------------------------

struct ClientLog {
  std::vector<int64_t> latency_ns;
  std::vector<uint64_t> digests;
  std::vector<bool> unexpected;
  size_t released = 0;  ///< answered by a live federated execution
  size_t cached = 0;    ///< answered from the warehouse
  size_t refused = 0;   ///< expected privacy refusals
  size_t failed = 0;    ///< any other status
  size_t epoch_failures = 0;  ///< failed epoch advances (evictions)
  std::string first_failure;
  /// Warehouse hits share the cached table: digest each table once.
  std::unordered_map<const Table*, std::pair<std::shared_ptr<const Table>, uint64_t>> memo;
};

constexpr uint64_t kQueryStride = 1ull << 32;

/// Rounds of each timed phase; its figures are those of the median round.
constexpr size_t kRounds = 5;

/// Runs ops [begin, end) of one client's stream.
void RunOps(Engine* engine, const std::vector<Op>& ops, size_t begin, size_t end,
            size_t client, Tracer* tracer, ClientLog* log) {
  log->latency_ns.reserve(ops.size());
  log->digests.reserve(ops.size());
  for (size_t i = begin; i < end; ++i) {
    const Op& op = ops[i];
    if (op.request == nullptr) {
      engine->AdvanceEpoch();
      // Entries older than the previous epoch are past warehouse_max_age.
      const Status evicted = engine->EvictWarehouseOlderThan(engine->epoch() - 1);
      if (!evicted.ok()) {
        ++log->epoch_failures;
        if (log->first_failure.empty()) log->first_failure = evicted.ToString();
      }
      continue;
    }
    const uint64_t query_id = client * kQueryStride + i + 1;
    if (tracer != nullptr) tracer->BeginQuery(client, query_id);
    const int64_t start = NowNs();
    auto result = engine->Execute(op.request->query, op.request->options);
    const int64_t stop = NowNs();
    if (tracer != nullptr) {
      Tracer::QuerySpan span;
      span.query = query_id;
      span.start_ns = start;
      span.end_ns = stop;
      span.answered = result.ok();
      if (result.ok()) {
        for (const auto& timing : result->timings) {
          for (size_t s = 0; s < Tracer::kNumStages; ++s) {
            if (timing.stage == Tracer::kStages[s]) span.stage_us[s] += timing.micros;
          }
        }
      }
      tracer->EndQuery(client, std::move(span));
    }
    log->latency_ns.push_back(stop - start);
    uint64_t digest = 0;
    bool failed = false;
    if (result.ok()) {
      if (result->from_warehouse) {
        ++log->cached;
        auto& slot = log->memo[result->table_handle.get()];
        if (slot.first == nullptr) {
          slot = {result->table_handle, TableDigest(result->table())};
        }
        digest = slot.second;
      } else {
        ++log->released;
        digest = TableDigest(result->table());
      }
    } else if (result.status().IsPrivacyViolation()) {
      ++log->refused;
      digest = Fnv(kFnvOffset, "refused");
    } else {
      failed = true;
      ++log->failed;
      if (log->first_failure.empty()) log->first_failure = result.status().ToString();
      digest = Fnv(kFnvOffset, result.status().ToString());
    }
    log->digests.push_back(digest);
    log->unexpected.push_back(failed);
  }
}

/// Client-seen figures of one round of a timed phase.
struct RoundStats {
  double p50_ms = 0, p90_ms = 0, qps = 0, cpu_ms = 0;
};

struct PhaseResult {
  std::vector<ClientLog> clients;
  std::vector<RoundStats> rounds;

  size_t Count(size_t ClientLog::*field) const {
    size_t n = 0;
    for (const auto& c : clients) n += c.*field;
    return n;
  }
  size_t queries() const {
    size_t n = 0;
    for (const auto& c : clients) n += c.latency_ns.size();
    return n;
  }
  uint64_t Digest() const;
};

double CpuSeconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) { return tv.tv_sec + tv.tv_usec / 1e6; };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(std::ceil(p * v.size()));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Runs round `round` of `rounds`: that slice of every client's stream, on
/// one thread per client released together, or all on this thread
/// (`serial`, the replay). Each round's latencies, throughput and CPU cost
/// are kept apart, so a run reports the median round and a burst of
/// machine noise moves one round, not the run.
void RunRound(Engine* engine, const Plan& plan, bool serial, Tracer* tracer,
              size_t round, size_t rounds, PhaseResult* out) {
  out->clients.resize(plan.clients.size());
  std::vector<size_t> first(plan.clients.size());
  for (size_t c = 0; c < plan.clients.size(); ++c) {
    first[c] = out->clients[c].latency_ns.size();
  }
  auto run_client = [&](size_t c) {
    const size_t n = plan.clients[c].size();
    RunOps(engine, plan.clients[c], n * round / rounds, n * (round + 1) / rounds, c,
           tracer, &out->clients[c]);
  };
  const double cpu_start = CpuSeconds();
  const int64_t start = NowNs();
  if (serial) {
    for (size_t c = 0; c < plan.clients.size(); ++c) run_client(c);
  } else {
    std::latch ready(static_cast<std::ptrdiff_t>(plan.clients.size()));
    std::vector<std::thread> threads;
    for (size_t c = 0; c < plan.clients.size(); ++c) {
      threads.emplace_back([&, c] {
        ready.arrive_and_wait();
        run_client(c);
      });
    }
    for (auto& t : threads) t.join();
  }
  const double wall_s = (NowNs() - start) / 1e9;
  const double cpu_s = CpuSeconds() - cpu_start;
  std::vector<double> ms;
  for (size_t c = 0; c < plan.clients.size(); ++c) {
    const auto& lat = out->clients[c].latency_ns;
    for (size_t i = first[c]; i < lat.size(); ++i) ms.push_back(lat[i] / 1e6);
  }
  RoundStats stats;
  stats.p50_ms = Percentile(ms, 0.50);
  stats.p90_ms = Percentile(ms, 0.90);
  stats.qps = ms.size() / wall_s;
  stats.cpu_ms = cpu_s * 1e3 / std::max<size_t>(ms.size(), 1);
  out->rounds.push_back(stats);
}

void Warmup(Engine* engine, const Plan& plan) {
  ClientLog log;
  RunOps(engine, plan.warmup, 0, plan.warmup.size(), 0, nullptr, &log);
}

/// Seeds the durable trust anchor in `dir` through the public API: a
/// mediator recovers the empty directory and serves the anchor streams.
Status SeedAnchor(const WorkloadSpec& spec, uint64_t seed, const Plan& plan,
                  const std::string& dir, const std::string& socket_dir) {
  PIYE_ASSIGN_OR_RETURN(auto deployment,
                        Deployment::Create(spec, seed, plan.max_cumulative_loss,
                                           socket_dir, dir, nullptr, true));
  std::vector<ClientLog> logs(plan.anchor.size());
  std::vector<std::thread> threads;
  for (size_t t = 0; t < plan.anchor.size(); ++t) {
    threads.emplace_back([&, t] {
      RunOps(deployment->engine(), plan.anchor[t], 0, plan.anchor[t].size(), 0,
             nullptr, &logs[t]);
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& log : logs) {
    if (log.failed > 0) return Status::Internal("anchor seeding: " + log.first_failure);
  }
  return Status::OK();
}

// --- Metrics ----------------------------------------------------------------

uint64_t PhaseResult::Digest() const {
  uint64_t digest = kFnvOffset;
  for (const auto& c : clients) {
    digest = Fnv(digest, c.digests.data(), c.digests.size() * sizeof(uint64_t));
  }
  return digest;
}

/// The median round of a phase.
RoundStats Summarize(const PhaseResult& phase) {
  std::vector<double> p50, p90, qps, cpu;
  for (const auto& r : phase.rounds) {
    p50.push_back(r.p50_ms);
    p90.push_back(r.p90_ms);
    qps.push_back(r.qps);
    cpu.push_back(r.cpu_ms);
  }
  return {Median(p50), Median(p90), Median(qps), Median(cpu)};
}

/// Machine-wide CPU ticks from /proc/stat: the share the hypervisor stole
/// during a phase is printed as a diagnostic of noisy runs.
struct CpuTicks {
  uint64_t total = 0, steal = 0;
};

CpuTicks ReadCpuTicks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  CpuTicks ticks;
  stat >> cpu;
  for (int field = 0; field < 8; ++field) {
    uint64_t v = 0;
    if (!(stat >> v)) break;
    ticks.total += v;
    if (field == 7) ticks.steal = v;
  }
  return ticks;
}

uint64_t WriteBytes() {
  std::ifstream io("/proc/self/io");
  std::string key;
  uint64_t value = 0;
  while (io >> key >> value) {
    if (key == "write_bytes:") return value;
  }
  return 0;
}

/// Engine counters and gauges read through metrics() and Health().
struct Counters {
  uint64_t queries = 0, hits = 0, coalesced = 0, wal_records = 0, puts = 0,
           evictions = 0, snapshots = 0, frames = 0, reconnects = 0,
           timeouts = 0, corrupt = 0, write_bytes = 0;
  double admission_wait_us = 0;
  uint64_t snapshot_ms = 0, recovery_ms = 0;
};

Counters Snapshot(Engine* engine) {
  Counters c;
  auto* m = engine->metrics();
  c.queries = m->counter("engine.queries");
  c.hits = m->counter("engine.warehouse_hits");
  c.coalesced = m->counter("engine.singleflight_coalesced");
  c.wal_records = m->counter("engine.wal_records");
  c.puts = m->counter("warehouse.puts");
  c.evictions = m->counter("warehouse.evictions");
  c.admission_wait_us = m->latency("engine.admission_wait").sum_micros();
  const auto health = engine->Health();
  c.snapshots = health.snapshots_total;
  c.snapshot_ms = health.last_snapshot_duration_ms;
  c.recovery_ms = health.last_recovery_replay_ms;
  for (const auto& s : health.sources) {
    c.frames += s.transport.frames_sent + s.transport.frames_received;
    c.reconnects += s.transport.reconnects;
    c.timeouts += s.transport.timeouts;
    c.corrupt += s.transport.corrupt_frames;
  }
  c.write_bytes = WriteBytes();
  return c;
}

using Metrics = std::map<std::string, std::pair<double, std::string>>;

const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kList = {
      {"query_p50_ms", "ms"}, {"query_p90_ms", "ms"},   {"throughput_qps", "1/s"},
      {"cpu_ms_per_query", "ms"}, {"peak_rss_mb", "MB"}, {"setup_s", "s"}};
  return kList;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kList = {
      {"mediator.query_us", "us"},
      {"mediator.answered", "count"},
      {"mediator.fragment_us", "us"},
      {"mediator.source_execution_us", "us"},
      {"mediator.privacy_control_us", "us"},
      {"mediator.integrate_us", "us"},
      {"mediator.record_us", "us"},
      {"mediator.warehouse_lookup_us", "us"},
      {"mediator.overhead_us", "us"},
      {"mediator.queries", "count"},
      {"mediator.admission_wait_us", "us"},
      {"mediator.singleflight_coalesced", "count"},
      {"mediator.singleflight_coalesced_ratio", "ratio"},
      {"mediator.fanout_wait_us", "us"},
      {"source.calls", "count"},
      {"source.calls_per_query", "count"},
      {"source.call_us", "us"},
      {"source.rows_out_per_call", "count"},
      {"source.answer_kb_per_call", "KiB"},
      {"source.failed_calls", "count"},
      {"net.overhead_us_per_call", "us"},
      {"net.frames_per_query", "count"},
      {"net.reconnects", "count"},
      {"net.timeouts", "count"},
      {"net.corrupt_frames", "count"},
      {"persist.releases", "count"},
      {"persist.write_kb_per_release", "KiB"},
      {"persist.wal_records_per_release", "count"},
      {"persist.snapshots", "count"},
      {"persist.snapshot_ms", "ms"},
      {"persist.recovery_replay_ms", "ms"},
      {"warehouse.hits", "count"},
      {"warehouse.hit_ratio", "ratio"},
      {"warehouse.puts", "count"},
      {"warehouse.evictions", "count"},
      {"setup.sources_ms", "ms"},
      {"setup.net_start_ms", "ms"},
      {"setup.schema_ms", "ms"},
      {"setup.recover_ms", "ms"},
      {"share.fragment_pct", "%"},
      {"share.source_pct", "%"},
      {"share.net_pct", "%"},
      {"share.fanout_wait_pct", "%"},
      {"share.privacy_control_pct", "%"},
      {"share.integrate_pct", "%"},
      {"share.record_pct", "%"},
      {"share.warehouse_lookup_pct", "%"},
      {"share.overhead_pct", "%"},
      {"trace.overhead_query_p50_pct", "%"},
      {"trace.overhead_query_p90_pct", "%"},
      {"trace.overhead_throughput_pct", "%"},
      {"trace.overhead_cpu_pct", "%"},
  };
  return kList;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

constexpr size_t kSourceExecution = 1;  // index of "source-execution"

/// The per-layer split of the traced phase. Stage means, the overhead and
/// the query mean are over answered queries, so the six stage means plus
/// mediator.overhead_us equal mediator.query_us.
void LayerMetrics(const Tracer& tracer, const PhaseResult& phase,
                  const Counters& before, const Counters& after, Metrics* out) {
  // Metric names of Tracer::kStages, in order.
  static const char* kStageMetrics[Tracer::kNumStages] = {
      "mediator.fragment_us",  "mediator.source_execution_us",
      "mediator.privacy_control_us", "mediator.integrate_us",
      "mediator.record_us", "mediator.warehouse_lookup_us"};
  static const char* kStageShares[Tracer::kNumStages] = {
      "share.fragment_pct", nullptr, "share.privacy_control_pct",
      "share.integrate_pct", "share.record_pct", "share.warehouse_lookup_pct"};
  auto set = [out](const std::string& name, double v) { (*out)[name].first = v; };

  // Source spans of each query, keyed by query id.
  struct Calls {
    std::map<std::string, const Tracer::SourceSpan*> engine, server;
  };
  const auto spans = tracer.sources();
  std::unordered_map<uint64_t, Calls> calls;
  // Answer sizes come from the source's own side: over the wire, the
  // engine-side FragmentResult carries no table.
  double call_us = 0, net_us = 0, rows[2] = {}, bytes[2] = {};
  size_t engine_calls = 0, failed_calls = 0, paired = 0, ok_calls[2] = {};
  for (const auto& s : spans) {
    (s.server_side ? calls[s.query].server : calls[s.query].engine)[s.owner] = &s;
    if (s.ok) {
      ++ok_calls[s.server_side];
      rows[s.server_side] += s.rows;
      bytes[s.server_side] += s.bytes;
    }
    if (s.server_side) continue;
    ++engine_calls;
    call_us += (s.end_ns - s.start_ns) / 1e3;
    if (!s.ok && !s.refused) ++failed_calls;
  }
  const int side = ok_calls[1] > 0 ? 1 : 0;
  for (const auto& [query, c] : calls) {
    for (const auto& [owner, e] : c.engine) {
      const auto it = c.server.find(owner);
      if (it == c.server.end()) continue;
      net_us += ((e->end_ns - e->start_ns) - (it->second->end_ns - it->second->start_ns)) / 1e3;
      ++paired;
    }
  }

  double stage_sum[Tracer::kNumStages] = {};
  double query_us = 0, fanout_wait = 0, slow_source = 0, slow_net = 0;
  size_t answered = 0;
  for (const auto& client : tracer.queries()) {
    for (const auto& q : client) {
      if (!q.answered) continue;
      ++answered;
      query_us += (q.end_ns - q.start_ns) / 1e3;
      for (size_t i = 0; i < Tracer::kNumStages; ++i) stage_sum[i] += q.stage_us[i];
      const double source_execution = q.stage_us[kSourceExecution];
      // The slowest source call blocks the query: split it into the
      // source's own time and the wire around it; the rest of the
      // source-execution stage is fan-out waiting.
      const auto it = calls.find(q.query);
      if (it == calls.end() || it->second.engine.empty()) continue;
      const Tracer::SourceSpan* slowest = nullptr;
      for (const auto& [owner, e] : it->second.engine) {
        if (slowest == nullptr ||
            e->end_ns - e->start_ns > slowest->end_ns - slowest->start_ns) {
          slowest = e;
        }
      }
      const double engine_us = (slowest->end_ns - slowest->start_ns) / 1e3;
      double server_us = engine_us;
      const auto srv = it->second.server.find(slowest->owner);
      if (srv != it->second.server.end()) {
        server_us = (srv->second->end_ns - srv->second->start_ns) / 1e3;
      }
      fanout_wait += source_execution - engine_us;
      slow_source += server_us;
      slow_net += engine_us - server_us;
    }
  }
  const double n = std::max<size_t>(answered, 1);
  double stages_total = 0;
  for (size_t i = 0; i < Tracer::kNumStages; ++i) {
    set(kStageMetrics[i], stage_sum[i] / n);
    stages_total += stage_sum[i] / n;
  }
  const double mean_query = query_us / n;
  set("mediator.query_us", mean_query);
  set("mediator.answered", answered);
  set("mediator.overhead_us", mean_query - stages_total);
  set("mediator.fanout_wait_us", fanout_wait / n);

  const double queries = after.queries - before.queries;
  const size_t attempted = phase.queries();
  set("mediator.queries", queries);
  set("mediator.admission_wait_us",
      Ratio(after.admission_wait_us - before.admission_wait_us, queries));
  set("mediator.singleflight_coalesced", after.coalesced - before.coalesced);
  set("mediator.singleflight_coalesced_ratio",
      Ratio(after.coalesced - before.coalesced, queries));

  set("source.calls", engine_calls);
  set("source.calls_per_query", Ratio(engine_calls, attempted));
  set("source.call_us", Ratio(call_us, engine_calls));
  set("source.rows_out_per_call", Ratio(rows[side], ok_calls[side]));
  set("source.answer_kb_per_call", Ratio(bytes[side] / 1024.0, ok_calls[side]));
  set("source.failed_calls", failed_calls);

  set("net.overhead_us_per_call", Ratio(net_us, paired));
  set("net.frames_per_query", Ratio(after.frames - before.frames, attempted));
  set("net.reconnects", after.reconnects - before.reconnects);
  set("net.timeouts", after.timeouts - before.timeouts);
  set("net.corrupt_frames", after.corrupt - before.corrupt);

  const double releases = phase.Count(&ClientLog::released);
  set("persist.releases", releases);
  set("persist.write_kb_per_release",
      Ratio((after.write_bytes - before.write_bytes) / 1024.0, releases));
  set("persist.wal_records_per_release",
      Ratio(after.wal_records - before.wal_records, releases));
  set("persist.snapshots", after.snapshots - before.snapshots);
  set("persist.snapshot_ms", after.snapshot_ms);
  set("persist.recovery_replay_ms", after.recovery_ms);

  set("warehouse.hits", after.hits - before.hits);
  set("warehouse.hit_ratio", Ratio(after.hits - before.hits, queries));
  set("warehouse.puts", after.puts - before.puts);
  set("warehouse.evictions", after.evictions - before.evictions);

  // Shares of the mean answered query; they add up to 100. The
  // source-execution stage is split into source, net and fan-out wait.
  auto share = [&](double us) { return 100.0 * Ratio(us, mean_query); };
  for (size_t i = 0; i < Tracer::kNumStages; ++i) {
    if (kStageShares[i] != nullptr) set(kStageShares[i], share(stage_sum[i] / n));
  }
  set("share.source_pct", share(slow_source / n));
  set("share.net_pct", share(slow_net / n));
  set("share.fanout_wait_pct", share(fanout_wait / n));
  set("share.overhead_pct", share(mean_query - stages_total));
}

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<std::pair<std::string, std::string>>& names,
                 const Metrics& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < names.size(); ++i) {
    const auto it = metrics.find(names[i].first);
    const double value = it == metrics.end() ? 0.0 : it->second.first;
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}", i ? ", " : "",
                names[i].first.c_str(), value, names[i].second.c_str());
  }
  std::printf("}}\n");
}

/// Compares a measured phase with the replay; returns the failed operations.
size_t CheckAgainstReplay(const PhaseResult& measured, const PhaseResult& replay) {
  size_t failed = 0;
  for (size_t c = 0; c < measured.clients.size(); ++c) {
    const auto& m = measured.clients[c];
    const auto& r = replay.clients[c];
    for (size_t i = 0; i < m.digests.size(); ++i) {
      const bool bad = m.unexpected[i] || i >= r.digests.size() || r.unexpected[i] ||
                       m.digests[i] != r.digests[i];
      failed += bad ? 1 : 0;
    }
  }
  return failed;
}

int Run(const Args& args) {
  piye::Logger::SetLevel(piye::LogLevel::kError);
  auto found = FindWorkload(args.workload, args.small);
  if (!found.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", found.status().ToString().c_str());
    return 2;
  }
  WorkloadSpec spec = *found;
  const size_t nproc = std::max(1u, std::thread::hardware_concurrency());
  spec.clients = std::min(spec.clients, nproc);

  std::printf("# env nproc=%zu build=%s compiler=\"%s\" git=%s workload=%s seed=%llu "
              "clients=%zu connections_per_source=%d server_workers=%zu "
              "engine_workers=%zu\n",
              nproc, PERFBENCH_BUILD_TYPE, __VERSION__, args.git_sha.c_str(),
              spec.name.c_str(), static_cast<unsigned long long>(args.seed),
              spec.clients, spec.wire ? 1 : 0, spec.wire ? ServerWorkers() : 0,
              EngineWorkers(spec));
#if PERFBENCH_SANITIZED || defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  std::fprintf(stderr, "perfbench: refusing to measure a sanitizer build\n");
  return 2;
#endif

  ScratchDir scratch(spec.name);
  if (scratch.path().empty()) {
    std::fprintf(stderr, "perfbench: cannot create a scratch directory\n");
    return 1;
  }
  const size_t ops = std::max<size_t>(
      spec.clients, static_cast<size_t>(std::llround(args.seconds * spec.ops_per_second)));
  const Plan plan = MakePlan(spec, args.seed, ops);

  std::string anchor;
  if (spec.durable) {
    anchor = scratch.Sub("anchor");
    const int64_t start = NowNs();
    Status seeded = SeedAnchor(spec, args.seed, plan, anchor, scratch.path());
    if (!seeded.ok()) {
      std::fprintf(stderr, "perfbench: %s\n", seeded.ToString().c_str());
      return 1;
    }
    std::printf("# anchor releases=%zu seeded_in_s=%.3f\n", [&] {
      size_t n = 0;
      for (const auto& t : plan.anchor) n += t.size();
      return n;
    }(), (NowNs() - start) / 1e9);
  }
  // A fresh copy of the anchor per deployment (copying is not set-up work).
  size_t deployments = 0;
  auto deploy = [&](Tracer* tracer, bool in_process) {
    const std::string dir = scratch.Sub("d" + std::to_string(deployments++));
    std::string persist;
    if (spec.durable) {
      persist = dir + "/persist";
      fs::copy(anchor, persist, fs::copy_options::recursive);
    }
    // Every set-up starts from a trimmed heap, as in a fresh process,
    // rather than from whatever the previous stack left free.
    ::malloc_trim(0);
    return Deployment::Create(spec, args.seed, plan.max_cumulative_loss, dir,
                              persist, tracer, in_process);
  };

  auto fail = [](const char* what, const Status& status) {
    std::fprintf(stderr, "perfbench: %s: %s\n", what, status.ToString().c_str());
    return 1;
  };

  // The first set-up serves the timed phase; the others are interleaved
  // with its rounds, so set-up timings are spread over the run.
  std::vector<SetupSplit> splits;
  auto live = deploy(nullptr, false);
  if (!live.ok()) return fail("set-up failed", live.status());
  splits.push_back((*live)->split());
  Warmup((*live)->engine(), plan);
  PhaseResult timed;
  const CpuTicks ticks_start = ReadCpuTicks();
  for (size_t round = 0; round < kRounds; ++round) {
    RunRound((*live)->engine(), plan, false, nullptr, round, kRounds, &timed);
    while (round + 1 < kRounds &&
           splits.size() < 1 + (spec.setups - 1) * (round + 1) / (kRounds - 1)) {
      auto extra = deploy(nullptr, false);
      if (!extra.ok()) return fail("set-up failed", extra.status());
      splits.push_back((*extra)->split());
    }
  }
  const CpuTicks ticks_end = ReadCpuTicks();
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const double peak_rss_mb = usage.ru_maxrss / 1024.0;
  live->reset();

  std::vector<double> totals, src_ms, net_ms, schema_ms, recover_ms;
  for (const auto& s : splits) {
    totals.push_back(s.total_s);
    src_ms.push_back(s.sources_ms);
    net_ms.push_back(s.net_ms);
    schema_ms.push_back(s.schema_ms);
    recover_ms.push_back(s.recover_ms);
  }
  const RoundStats e2e = Summarize(timed);
  Metrics metrics;
  metrics["query_p50_ms"].first = e2e.p50_ms;
  metrics["query_p90_ms"].first = e2e.p90_ms;
  metrics["throughput_qps"].first = e2e.qps;
  metrics["cpu_ms_per_query"].first = e2e.cpu_ms;
  metrics["peak_rss_mb"].first = peak_rss_mb;
  metrics["setup_s"].first = Median(totals);

  PhaseResult traced;
  if (args.trace) {
    Tracer tracer(&plan);
    auto stack = deploy(&tracer, false);
    if (!stack.ok()) return fail("traced set-up failed", stack.status());
    Warmup((*stack)->engine(), plan);
    const Counters before = Snapshot((*stack)->engine());
    for (size_t round = 0; round < kRounds; ++round) {
      RunRound((*stack)->engine(), plan, false, &tracer, round, kRounds, &traced);
    }
    const Counters after = Snapshot((*stack)->engine());
    stack->reset();
    LayerMetrics(tracer, traced, before, after, &metrics);
    metrics["setup.sources_ms"].first = Median(src_ms);
    metrics["setup.net_start_ms"].first = Median(net_ms);
    metrics["setup.schema_ms"].first = Median(schema_ms);
    metrics["setup.recover_ms"].first = Median(recover_ms);
    const RoundStats t = Summarize(traced);
    auto overhead = [](double traced_v, double plain) {
      return 100.0 * Ratio(traced_v - plain, plain);
    };
    metrics["trace.overhead_query_p50_pct"].first = overhead(t.p50_ms, e2e.p50_ms);
    metrics["trace.overhead_query_p90_pct"].first = overhead(t.p90_ms, e2e.p90_ms);
    metrics["trace.overhead_throughput_pct"].first = overhead(e2e.qps, t.qps);
    metrics["trace.overhead_cpu_pct"].first = overhead(t.cpu_ms, e2e.cpu_ms);
    const std::string dump = ".bench_run/trace-" + spec.name + ".jsonl";
    const Status dumped = tracer.Dump(dump);
    std::printf("# trace spans=%s unattributed_source_spans=%llu\n",
                dumped.ok() ? dump.c_str() : dumped.ToString().c_str(),
                static_cast<unsigned long long>(tracer.unattributed()));
  }

  // The reference: every stream once more, one query at a time, on a fresh
  // stack (in-process sources for the wire workload, so the wire's answers
  // are also checked against the in-process pipeline's).
  auto replay_stack = deploy(nullptr, /*in_process=*/true);
  if (!replay_stack.ok()) return fail("replay set-up failed", replay_stack.status());
  Warmup((*replay_stack)->engine(), plan);
  PhaseResult replay;
  RunRound((*replay_stack)->engine(), plan, true, nullptr, 0, 1, &replay);
  replay_stack->reset();

  size_t attempted = timed.queries();
  size_t failed = CheckAgainstReplay(timed, replay) +
                  timed.Count(&ClientLog::epoch_failures) +
                  replay.Count(&ClientLog::epoch_failures);
  if (args.trace) {
    attempted += traced.queries();
    failed += CheckAgainstReplay(traced, replay) + traced.Count(&ClientLog::epoch_failures);
  }
  for (const auto& c : timed.clients) {
    if (!c.first_failure.empty()) {
      std::fprintf(stderr, "perfbench: failure: %s\n", c.first_failure.c_str());
    }
  }

  std::printf("# setup_s medians of %zu: total=%.4f sources_ms=%.2f net_ms=%.2f "
              "schema_ms=%.2f recover_ms=%.2f all=",
              splits.size(), Median(totals), Median(src_ms), Median(net_ms),
              Median(schema_ms), Median(recover_ms));
  for (double t : totals) std::printf("%.4f,", t);
  std::printf("\n");
  const size_t samples = timed.queries();
  std::printf("# timed samples=%zu rounds=%zu released=%zu cached=%zu refused=%zu "
              "refused_share=%.4f unexpected=%zu host_steal_pct=%.1f digest=%016llx\n",
              samples, timed.rounds.size(), timed.Count(&ClientLog::released),
              timed.Count(&ClientLog::cached), timed.Count(&ClientLog::refused),
              Ratio(timed.Count(&ClientLog::refused), samples),
              timed.Count(&ClientLog::failed),
              100.0 * Ratio(ticks_end.steal - ticks_start.steal,
                            ticks_end.total - ticks_start.total),
              static_cast<unsigned long long>(timed.Digest()));
  std::printf("# rounds:");
  for (const auto& r : timed.rounds) {
    std::printf(" [p50_ms=%.4g p90_ms=%.4g qps=%.5g cpu_ms=%.4g]", r.p50_ms, r.p90_ms, r.qps,
                r.cpu_ms);
  }
  std::printf("\n");
  std::printf("# replay refused=%zu unexpected=%zu mismatched_or_failed=%zu "
              "digest=%016llx\n",
              replay.Count(&ClientLog::refused), replay.Count(&ClientLog::failed), failed,
              static_cast<unsigned long long>(replay.Digest()));
  const auto& names = args.trace ? PerLayerMetrics() : EndToEndMetrics();
  if (args.trace) {
    std::printf("# untraced:");
    for (const auto& [name, unit] : EndToEndMetrics()) {
      std::printf(" %s=%.6g %s", name.c_str(), metrics[name].first, unit.c_str());
    }
    std::printf("\n");
  }
  for (const auto& [name, unit] : names) metrics[name].second = unit;
  PrintResult(failed == 0, attempted, failed, names, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> --trace <0|1> "
                 "[--small] [--git-sha <sha>]\n",
                 argv[0]);
    return 2;
  }
  return perfbench::Run(args);
}
