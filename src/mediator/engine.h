#ifndef PIYE_MEDIATOR_ENGINE_H_
#define PIYE_MEDIATOR_ENGINE_H_

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "common/executor.h"
#include "common/sync.h"
#include "common/result.h"
#include "common/trace.h"
#include "match/mediated_schema.h"
#include "mediator/admission.h"
#include "mediator/circuit_breaker.h"
#include "mediator/fragmenter.h"
#include "mediator/history.h"
#include "mediator/persistence.h"
#include "mediator/privacy_control.h"
#include "mediator/query_options.h"
#include "mediator/result_integrator.h"
#include "mediator/warehouse.h"
#include "persist/floor_index.h"
#include "persist/snapshotter.h"
#include "persist/state_log.h"
#include "persist/wal.h"
#include "source/federated_source.h"

namespace piye {
namespace mediator {

/// The Privacy Preserving Mediation Engine of Figure 2(b), wired end to end:
/// mediated-schema generation over source sketches, query fragmentation,
/// per-source execution (each source runs its own Figure 2(a) pipeline),
/// result integration with private dedup, privacy control over the
/// integrated answer, history logging, and hybrid warehousing.
///
/// Concurrency model: sources are autonomous remote services, so Execute
/// fans fragments out across them on a fixed-size thread pool with
/// per-source deadlines, bounded retry for transient failures, and graceful
/// degradation — a slow or failing source is reported in `sources_skipped`,
/// it does not fail the query (unless a `QueryOptions::min_sources` quorum
/// demands it). Per-source circuit breakers shed a persistently failing
/// source outright instead of burning retry and deadline budget on every
/// query, with half-open probing to readmit it.
/// Order of one Execute: admission → warehouse → single-flight → execution.
/// Every query is keyed by its canonical binary warehouse key (the effective
/// query's `PiqlQuery::CanonicalKey` plus the resolved dedup keys and the
/// quorum). A warehouse hit is answered right after admission and takes no
/// engine-wide lock. Identical concurrent misses (same key and options) are
/// single-flighted: one caller leads the federated execution and the rest
/// share its privacy-checked result — one source fan-out, one history
/// entry, one budget charge for the burst (different requesters never
/// coalesce, so per-requester accounting is untouched).
///
/// Overload model: every Execute passes through an admission pipeline
/// *before* the warehouse, single-flight, history, budget, or any breaker —
/// a pre-expired deadline is rejected with kDeadlineExceeded, a requester
/// outrunning its token bucket or arriving at a saturated queue is shed
/// with kResourceExhausted and a retry-after hint, and queries beyond
/// `Options::admission.max_inflight` wait in a weighted fair-share,
/// deadline-aware queue (see mediator/admission.h). Shed queries charge
/// zero privacy budget and never count against a source's circuit breaker.
/// `QueryOptions::cancel` threads a cooperative CancelToken through the
/// executor, the retry/backoff loop, and `RemoteSource::ExecuteFragment`,
/// so an expired whole-query deadline or a caller cancellation stops
/// in-flight fragments instead of letting them run to completion.
/// Execute itself is safe for concurrent callers: the shared stores
/// (history, warehouse, privacy control, metrics) are internally locked,
/// the mediated schema is immutable after initialization, and
/// `RemoteSource::ExecuteFragment` is safe for concurrent calls. Results
/// are deterministic regardless of thread count or completion order.
///
/// Durability model (opt-in via `Recover`): the query history, per-requester
/// cumulative privacy loss, inference-audit state, warehouse
/// materializations, and the logical epoch are the engine's *trust anchor* —
/// the sequence-level Privacy Control of Section 4 is only as strong as this
/// state's survival across process death. With a persist directory attached,
/// every release is appended to a checksummed write-ahead log and fsynced
/// *before* the answer leaves the engine (fail-closed ordering: an answer
/// whose disclosure cannot be made durable is withheld), periodic snapshots
/// bound recovery time, and `Recover` reconstructs the state conservatively:
/// a torn or corrupt WAL tail is discarded with its budget floors held at
/// the last durable values — a crash can never reset a snooper's budget —
/// while a checksummed record or snapshot that does not decode (another
/// format version) refuses recovery outright.
/// If the durability layer fails mid-flight, the engine fails closed:
/// subsequent queries are refused rather than served unaccounted.
class MediationEngine {
 public:
  struct Options {
    /// Engine-wide ceiling on the combined privacy loss of one answer.
    double max_combined_loss = 0.9;
    /// Interval-loss threshold for the inference auditor.
    double max_interval_loss = 0.9;
    /// Per-requester cumulative loss budget across the whole history.
    double max_cumulative_loss = 2.0;
    /// Warehouse answers up to this many epochs old ("quick response for
    /// emergencies"); `QueryOptions::allow_warehouse` bypasses it per query.
    uint64_t warehouse_max_age = 1;
    /// Worker threads in the per-source fan-out pool; values below 1 are
    /// clamped to 1.
    size_t worker_threads = Executor::DefaultThreadCount();
    /// Thresholds of the per-source circuit breakers. Every registered
    /// source has one and every fragment consults it; a healthy source's
    /// breaker only admits. `QueryOptions::bypass_circuit_breaker` exempts
    /// a single query.
    CircuitBreakerConfig circuit_breaker;
    /// Overload resilience (see mediator/admission.h): max-inflight gating,
    /// bounded fair-share queueing, and per-requester rate limiting, all
    /// applied ahead of the warehouse and single-flight so shed queries
    /// never touch history/budget. The default config is fully permissive
    /// (no gating, no rate limit): one atomic gauge, no lock.
    AdmissionConfig admission;
    /// Durable mode: history records appended between snapshot rotations
    /// (smaller ⇒ faster recovery, more snapshot I/O). 0 ⇒ snapshot only
    /// during Recover. Crossing the threshold *triggers* the background
    /// snapshotter; the rotation itself runs off the query path.
    uint64_t snapshot_every_records = 256;
    /// Bounded-state knobs. The in-memory history ring keeps at most
    /// `max_resident_history` entries (sequence numbers and
    /// `history()->size()` keep counting past it; 0 = unbounded); after
    /// each snapshot rotation, cold requesters beyond `hot_requesters` are
    /// spilled to the generation's durable floor index and faulted back in
    /// on their next query (0 = never spill). The defaults keep small
    /// deployments entirely resident.
    size_t max_resident_history = 4096;
    size_t hot_requesters = 65536;
  };

  explicit MediationEngine(Options options);
  MediationEngine() : MediationEngine(Options()) {}

  /// Registers a remote source (non-owning; sources outlive the engine).
  /// Fails with kAlreadyExists for a duplicate owner and with
  /// kInvalidArgument for registration after GenerateMediatedSchema — both
  /// used to be silently accepted and corrupted the mediated schema.
  Status RegisterSource(source::FederatedSource* src);
  std::vector<std::string> SourceOwners() const;

  /// Builds the mediated schema from the sources' privacy-respecting
  /// sketches. Must be called before Execute; freezes registration.
  Status GenerateMediatedSchema(const std::string& shared_key);
  const match::MediatedSchema& mediated_schema() const { return schema_; }

  /// Attaches a durability directory and restores fail-closed state from it
  /// (no-op state-wise when the directory is fresh). Replays the newest
  /// valid snapshot plus its WAL — discarding a damaged tail but holding
  /// every requester's cumulative loss at no less than its last durable
  /// value; a record that passes its checksum but does not decode fails the
  /// call with the decode status — then folds the result into a fresh
  /// snapshot generation and starts journaling. Must run on a fresh engine
  /// (before any Execute); call it once per process, at startup.
  Status Recover(const std::string& dir);

  /// True once Recover attached a directory (the engine journals releases).
  bool persistence_enabled() const { return persist_attached_.load(); }
  /// True when the durability layer failed and the engine is failing
  /// closed (every Execute refused until a new process Recovers).
  bool persistence_failed() const { return persist_failed_.load(); }

  /// Crash-injection harness: arms a kill-point on the live WAL (see
  /// persist::KillPoint) that fires on the `after_appends`-th subsequent
  /// append, simulating process death at exactly that durability step. The
  /// engine then fails closed; tests rebuild an engine and Recover. Fails
  /// unless persistence is attached.
  Status ArmPersistKillPoint(persist::KillPoint kill_point,
                             uint64_t after_appends = 0);

  /// Crash-injection harness for the compact/rotate sequence: arms a
  /// one-shot kill inside the next snapshot rotation (see
  /// persist::RotateKillPoint). The failed rotation latches the same
  /// fail-closed refusal as a WAL append failure. Fails unless persistence
  /// is attached.
  Status ArmRotateKillPoint(persist::RotateKillPoint kill_point);

  /// Requests a snapshot rotation through the background snapshotter (the
  /// one blessed manual-snapshot path; direct StateLog rotation is flagged
  /// by piye_lint). With `wait`, blocks until a rotation that started after
  /// this call completes and returns its status; otherwise returns OK
  /// immediately after scheduling. Fails unless persistence is attached.
  Status TriggerSnapshot(bool wait = true);

  /// Advances the logical clock (fresh epoch ⇒ warehouse entries age).
  /// Journaled when persistence is attached.
  void AdvanceEpoch();
  uint64_t epoch() const { return epoch_.load(std::memory_order_relaxed); }

  /// Journaled warehouse eviction (prefer this over mutating `warehouse()`
  /// directly in durable deployments, so the materialized state on disk
  /// tracks the in-memory store between snapshots).
  Status EvictWarehouseOlderThan(uint64_t epoch_horizon);

  /// Per-stage timing record of one query (see common/trace.h).
  using StageTiming = trace::StageTiming;

  struct IntegratedResult {
    /// Refcounted handle to the integrated answer (never null on a released
    /// result). On a warehouse hit this *is* the cached materialization —
    /// zero-copy; on a live execution it is shared with the warehouse entry
    /// the release materialized. Treat as immutable.
    std::shared_ptr<const relational::Table> table_handle;
    const relational::Table& table() const { return *table_handle; }
    double combined_privacy_loss = 0.0;
    bool from_warehouse = false;
    std::vector<std::string> sources_answered;
    /// owner -> reason (could not serve the fragment: no mapped attributes,
    /// privacy refusal, transient failure after retries, deadline, or a
    /// circuit breaker shedding the source).
    std::map<std::string, std::string> sources_skipped;
    /// owners whose results privacy control excluded from the answer.
    std::vector<std::string> sources_suppressed;
    std::vector<StageTiming> timings;
  };

  /// Runs one integrated query under the given options.
  Result<IntegratedResult> Execute(const source::PiqlQuery& query,
                                   const QueryOptions& options = {});

  /// Health / readiness accounting for load balancers and operators.
  struct SourceHealth {
    std::string owner;
    /// The source's circuit breaker: "closed", "open" or "half-open".
    std::string breaker_state;
    uint32_t consecutive_failures = 0;
    uint64_t shed_total = 0;
    uint64_t opened_total = 0;
    /// Wire-level counters of the source's transport (all zeros with
    /// `over_network == false` for an in-process source).
    source::TransportStats transport;
  };
  struct HealthReport {
    /// Serving-ready: schema built, durability (if attached) intact, and at
    /// least one source admitting fragments.
    bool ready = false;
    bool schema_ready = false;
    bool persistence_enabled = false;
    bool persistence_ok = true;
    uint64_t wal_generation = 0;
    size_t sources_total = 0;
    /// Sources whose breaker would admit a fragment right now.
    size_t sources_admitting = 0;
    std::vector<SourceHealth> sources;
    /// Admission pipeline state (live gauges + lifetime counters): queries
    /// executing now, queries waiting in the fair-share queue, and the
    /// engine.admitted / engine.shed / engine.cancelled totals.
    size_t admission_inflight = 0;
    size_t admission_queue_depth = 0;
    uint64_t admitted_total = 0;
    uint64_t shed_total = 0;
    uint64_t cancelled_total = 0;
    /// Durability-state gauges (all zero / "never" without persistence):
    /// what an operator watches to see compaction actually bounding growth.
    uint64_t wal_live_bytes = 0;          ///< durable bytes in the live WAL
    uint64_t records_since_snapshot = 0;  ///< WAL records since last rotation
    uint64_t snapshots_total = 0;         ///< completed rotations (lifetime)
    /// Milliseconds since / duration of the last completed rotation;
    /// age is UINT64_MAX when none ever completed.
    uint64_t last_snapshot_age_ms = UINT64_MAX;
    uint64_t last_snapshot_duration_ms = 0;
    /// Milliseconds Recover spent loading the snapshot + replaying the WAL.
    uint64_t last_recovery_replay_ms = 0;
    /// The hot set vs. the spill store: requesters with resident budget
    /// state, requesters in the durable floor index (spilled requesters are
    /// index-only), and lifetime spill evictions.
    size_t resident_requesters = 0;
    uint64_t floor_index_requesters = 0;
    uint64_t spilled_requesters_total = 0;
  };
  HealthReport Health() const;

  QueryHistory* history() { return &history_; }
  Warehouse* warehouse() { return &warehouse_; }
  PrivacyControl* control() { return &control_; }

  /// Engine-lifetime counters and per-stage latency histograms (queries
  /// executed, fragments dispatched/retried/timed out, breaker and
  /// warehouse activity, WAL records…), dumpable as JSON via
  /// trace::MetricsRegistry::ToJson.
  trace::MetricsRegistry* metrics() { return &metrics_; }

 private:
  struct FragmentOutcome;
  struct InflightExecution;

  /// Registry cells of every metric the engine updates, registered once at
  /// construction so the query path does no name lookup and takes no
  /// registry lock.
  struct MetricCells {
    explicit MetricCells(trace::MetricsRegistry* m);
    trace::MetricsRegistry::Counter* queries;
    trace::MetricsRegistry::Counter* warehouse_hits;
    trace::MetricsRegistry::Counter* singleflight_leaders;
    trace::MetricsRegistry::Counter* singleflight_coalesced;
    trace::MetricsRegistry::Counter* cancelled;
    trace::MetricsRegistry::Counter* fragment_attempts;
    trace::MetricsRegistry::Counter* fragment_retries;
    trace::MetricsRegistry::Counter* fragments_ok;
    trace::MetricsRegistry::Counter* fragments_failed;
    trace::MetricsRegistry::Counter* fragments_cancelled;
    trace::MetricsRegistry::Counter* fragments_deadline_exceeded;
    trace::MetricsRegistry::Counter* wal_records;
    trace::MetricsRegistry::Counter* persist_failures;
    trace::MetricsRegistry::Counter* snapshots;
    trace::MetricsRegistry::Counter* recoveries;
    trace::MetricsRegistry::Counter* recovery_tail_discards;
    /// "stage.<name>" latency histograms, one per ScopedSpan stage.
    trace::LatencyCell* warehouse_lookup;
    trace::LatencyCell* fragment;
    trace::LatencyCell* source_execution;
    trace::LatencyCell* source_fragment;
    trace::LatencyCell* privacy_control;
    trace::LatencyCell* integrate;
    trace::LatencyCell* record;
  };

  /// The body of one federated execution after a warehouse miss (or with
  /// the warehouse off): budget check, fragmentation, fan-out, privacy
  /// control, integration, durable release. `warehouse_key` is the
  /// effective query's warehouse key, `dedup_keys` the resolved dedup keys,
  /// and `query_trace` already holds the warehouse-lookup span, if any.
  Result<IntegratedResult> ExecuteUncoalesced(const source::PiqlQuery& query,
                                              const QueryOptions& options,
                                              const std::string& warehouse_key,
                                              const std::vector<std::string>& dedup_keys,
                                              trace::Trace* query_trace);

  /// Requester-facing dedup key names resolved loosely to mediated
  /// attribute names (an unresolvable name is kept as given).
  std::vector<std::string> ResolveDedupKeys(
      const std::vector<std::string>& keys) const;

  /// Cheap structural validation of the options, before the query is
  /// admitted or charged: negative deadline, runaway retry counts, and a
  /// quorum no source set can meet are caller bugs reported as
  /// kInvalidArgument, not silently misinterpreted.
  Status ValidateOptions(const QueryOptions& options) const;

  /// Runs one fragment against its source with bounded retry/backoff. The
  /// token (caller token tightened with the fan-out deadline) is polled
  /// before each attempt and interrupts the backoff sleeps; a cancelled
  /// attempt reports nothing to the breaker — the source is not to blame
  /// for a caller that gave up.
  static void RunFragmentWithRetry(const source::FederatedSource* src,
                                   const source::PiqlQuery& fragment,
                                   const QueryOptions& options,
                                   std::chrono::steady_clock::time_point deadline,
                                   const CancelToken& cancel,
                                   const MetricCells& cells,
                                   FragmentOutcome* outcome);

  /// The fail-closed durability barrier of one release (or refusal): in
  /// durable mode, appends the history record (and warehouse put) to the
  /// WAL and makes it durable, then applies it in memory; a durability
  /// failure withholds the answer and flips the engine into fail-closed
  /// refusal. In volatile mode, applies in memory directly.
  Status RecordDurably(HistoryEntry entry,
                       std::shared_ptr<const relational::Table> warehouse_table,
                       const std::string& warehouse_key);

  /// Appends one auxiliary record (epoch/evict/audit) and syncs; marks the
  /// engine failed on error. Caller must hold persist_mu_.
  Status JournalLocked(RecordType type, const std::string& payload)
      REQUIRES(persist_mu_);

  /// Compacts the trust anchor into the next generation: folds the dirty
  /// budget floors into the floor index, snapshots the resident state,
  /// rotates the WAL, then marks floors clean, republishes the floor index
  /// for fault-ins, and spills cold requesters down to `hot_requesters`.
  /// Caller must hold persist_mu_.
  Status RotateSnapshotLocked() REQUIRES(persist_mu_);

  /// The snapshotter worker's entry point: takes persist_mu_, runs
  /// RotateSnapshotLocked, and latches fail-closed on any rotation failure
  /// (the same latch a WAL append failure trips).
  Status RotateSnapshotBackground();

  Status FailClosedStatus() const;

  Options options_;
  std::vector<source::FederatedSource*> sources_;
  match::MediatedSchema schema_;
  bool schema_ready_ = false;
  QueryHistory history_;
  Warehouse warehouse_;
  PrivacyControl control_;
  std::atomic<uint64_t> epoch_{0};
  trace::MetricsRegistry metrics_;
  MetricCells cells_;  ///< declared after metrics_, whose cells it holds
  /// owner -> breaker; populated at registration, consulted by every
  /// fragment of a query that does not bypass breakers (stable addresses:
  /// pool tasks report outcomes through these pointers after the waiter
  /// moved on).
  std::map<std::string, std::unique_ptr<CircuitBreaker>> breakers_;
  /// Admission pipeline (declared after metrics_, which it reports into).
  AdmissionController admission_;

  /// Single-flight table: warehouse key + coalescing options -> in-flight
  /// execution (misses only; a hit never gets here). A leader
  /// inserts its flight before executing and removes it before publishing;
  /// followers that joined in between wait on the flight's condition
  /// variable and share the leader's result.
  mutable Mutex inflight_mu_;
  std::map<std::string, std::shared_ptr<InflightExecution>> inflight_
      GUARDED_BY(inflight_mu_);

  /// Durability layer. persist_mu_ serializes WAL appends with their
  /// in-memory application, so recovery's replay order matches execution
  /// order; the atomics let hot paths check state without the lock.
  mutable Mutex persist_mu_;
  std::unique_ptr<persist::StateLog> persist_ GUARDED_BY(persist_mu_);
  std::atomic<bool> persist_attached_{false};
  std::atomic<bool> persist_failed_{false};
  uint64_t records_since_snapshot_ GUARDED_BY(persist_mu_) = 0;

  /// The current generation's floor index, republished after every
  /// rotation. A *leaf* lock: the history's fault-in provider copies the
  /// handle under floor_index_mu_ only — it must never touch persist_mu_,
  /// because fault-ins run both with and without persist_mu_ held.
  mutable Mutex floor_index_mu_;
  std::shared_ptr<const persist::FloorIndex> floor_index_
      GUARDED_BY(floor_index_mu_);

  /// Durability observability (Health): wall-clock-free timestamps as
  /// steady_clock nanosecond counts (0 = never).
  std::atomic<uint64_t> last_snapshot_done_ns_{0};
  std::atomic<uint64_t> last_snapshot_duration_ms_{0};
  std::atomic<uint64_t> last_recovery_replay_ms_{0};
  std::atomic<uint64_t> snapshots_total_{0};

  /// Declared last: destroyed (joined) first, so in-flight fragment tasks
  /// finish before any other engine state is torn down.
  Executor executor_;

  /// Declared after executor_ so it is stopped (worker joined) before
  /// anything else is torn down: its rotate callback touches persist_,
  /// history_, warehouse_, and control_. Created by Recover.
  std::unique_ptr<persist::Snapshotter> snapshotter_;
};

}  // namespace mediator
}  // namespace piye

#endif  // PIYE_MEDIATOR_ENGINE_H_
