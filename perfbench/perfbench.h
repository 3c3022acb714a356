// Shared declarations of the end-to-end benchmark: workload specs, the
// seeded query plan, the deployed serving stack, and the out-of-program
// tracer. The benchmark drives the library only through its public API.
#ifndef PERFBENCH_PERFBENCH_H_
#define PERFBENCH_PERFBENCH_H_

#include <atomic>
#include <iterator>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/macros.h"
#include "common/result.h"
#include "mediator/engine.h"
#include "mediator/query_options.h"
#include "net/client.h"
#include "net/net_source.h"
#include "net/server.h"
#include "source/federated_source.h"
#include "source/piql.h"
#include "source/remote_source.h"

namespace perfbench {

using piye::Result;
using piye::Status;
using Engine = piye::mediator::MediationEngine;

int64_t NowNs();

struct WorkloadSpec;

/// Worker threads of each source server.
size_t ServerWorkers();
/// Fan-out threads of the mediation engine.
size_t EngineWorkers(const WorkloadSpec& spec);

/// One workload: who asks what, against which deployment. `ops_per_second`
/// fixes the work of a run (seconds × ops_per_second operations), so the
/// amount of work — and everything that grows with it, such as warehouse
/// memory — never depends on how fast the program is.
struct WorkloadSpec {
  std::string name;
  size_t clients = 1;             ///< closed-loop client threads
  size_t patients = 0;            ///< patients per clinical source
  bool wire = false;              ///< sources behind Unix-socket SourceServers
  bool durable = false;           ///< Recover on a seeded trust anchor
  bool allow_warehouse = true;    ///< QueryOptions::allow_warehouse
  double ops_per_second = 0.0;    ///< fixed work per measured second
  size_t warmup_ops = 0;          ///< untimed queries before each timed phase
  size_t setups = 0;              ///< set-ups per run; setup_s is the median
  size_t anchor_releases = 0;     ///< durable: releases seeded into the anchor
};

/// The named workload at full size, or reduced for the self-tests.
Result<WorkloadSpec> FindWorkload(const std::string& name, bool small);

struct Request {
  piye::source::PiqlQuery query;
  piye::mediator::QueryOptions options;
};

/// One client step: a (shared) request, or, when null, an epoch advance
/// that also evicts the warehouse entries the new epoch can no longer serve.
struct Op {
  std::shared_ptr<const Request> request;
};

/// A seeded operation stream. Each client owns a disjoint requester set, so
/// every requester's query sequence — and with it every budget decision —
/// does not depend on how the clients interleave.
struct Plan {
  std::vector<std::vector<Op>> clients;
  /// Warm-up queries of a requester outside every client set.
  std::vector<Op> warmup;
  /// durable: releases seeded into the trust anchor before set-up, one
  /// stream per seeding thread.
  std::vector<std::vector<Op>> anchor;
  std::unordered_map<std::string, size_t> client_of;
  /// Cumulative-loss budget the workload deploys with (0 = engine default).
  double max_cumulative_loss = 0.0;
};

Plan MakePlan(const WorkloadSpec& spec, uint64_t seed, size_t ops);

class Tracer;

/// Wall time of each set-up step, in milliseconds.
struct SetupSplit {
  double sources_ms = 0.0;
  double net_ms = 0.0;
  double schema_ms = 0.0;
  double recover_ms = 0.0;
  double total_s = 0.0;
};

/// The serving stack of one workload: three clinical sources (in-process or
/// behind their own SourceServer) and the mediation engine over them.
class Deployment {
 public:
  /// Builds and times the stack. `socket_dir` holds the servers' Unix
  /// sockets; `persist_dir` (durable workloads) is recovered from. With a
  /// tracer, every source is wrapped in a timing decorator. `in_process`
  /// forces in-process sources even for a wire workload.
  static Result<std::unique_ptr<Deployment>> Create(
      const WorkloadSpec& spec, uint64_t seed, double max_cumulative_loss,
      const std::string& socket_dir, const std::string& persist_dir,
      Tracer* tracer, bool in_process);
  ~Deployment();

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  Engine* engine() { return engine_.get(); }
  const SetupSplit& split() const { return split_; }

 private:
  Deployment() = default;

  std::vector<std::unique_ptr<piye::source::RemoteSource>> sources_;
  std::vector<std::unique_ptr<piye::source::FederatedSource>> server_side_;
  std::vector<std::unique_ptr<piye::net::SourceServer>> servers_;
  std::vector<std::shared_ptr<piye::net::NetClient>> net_clients_;
  std::vector<std::unique_ptr<piye::source::FederatedSource>> net_sources_;
  std::vector<std::unique_ptr<piye::source::FederatedSource>> engine_side_;
  std::unique_ptr<Engine> engine_;
  SetupSplit split_;
};

/// Out-of-program tracing. A root `query` span goes around each Execute;
/// engine-side `source.call` spans and server-side `source.server_call`
/// spans are recorded by decorators around each source and attributed to
/// the in-flight query of the client owning the fragment's requester.
class Tracer {
 public:
  explicit Tracer(const Plan* plan);

  struct SourceSpan {
    uint64_t query = 0;  ///< 0 = not attributable (warm-up requester)
    std::string owner;
    bool server_side = false;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    bool ok = false;
    bool refused = false;
    uint64_t rows = 0;
    uint64_t bytes = 0;
  };
  /// The engine's stages, in IntegratedResult::timings names.
  static constexpr const char* kStages[] = {"fragment",  "source-execution",
                                            "privacy-control", "integrate",
                                            "record", "warehouse-lookup"};
  static constexpr size_t kNumStages = std::size(kStages);

  struct QuerySpan {
    uint64_t query = 0;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    bool answered = false;  ///< the engine returned stage timings
    double stage_us[kNumStages] = {};
  };

  void BeginQuery(size_t client, uint64_t query);
  void EndQuery(size_t client, QuerySpan span);
  void RecordSource(const std::string& requester, SourceSpan span);

  /// Wraps `inner` (not owned) in a timing decorator.
  std::unique_ptr<piye::source::FederatedSource> Wrap(
      const piye::source::FederatedSource* inner, bool server_side);

  const std::vector<std::vector<QuerySpan>>& queries() const { return queries_; }
  std::vector<SourceSpan> sources() const;
  uint64_t unattributed() const { return unattributed_.load(); }

  /// Writes every span as one JSON object per line.
  Status Dump(const std::string& path) const;

 private:
  const Plan* plan_;
  std::vector<std::unique_ptr<std::atomic<uint64_t>>> inflight_;
  std::vector<std::vector<QuerySpan>> queries_;
  mutable std::mutex mu_;
  std::vector<SourceSpan> sources_;
  std::atomic<uint64_t> unattributed_{0};
};

}  // namespace perfbench

#endif  // PERFBENCH_PERFBENCH_H_
