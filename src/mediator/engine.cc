#include "mediator/engine.h"

#include <algorithm>
#include <chrono>
#include <future>
#include <set>
#include <utility>

#include "common/logging.h"
#include "common/macros.h"
#include "mediator/persistence.h"
#include "persist/codec.h"
#include "source/remote_source.h"

namespace piye {
namespace mediator {

namespace {

/// Bound on the warehouse as a whole (ApproxBytes accounting;
/// oldest-epoch / LRU-within-epoch eviction; see mediator/warehouse.h).
constexpr size_t kWarehouseMaxBytes = 256ull << 20;

constexpr std::chrono::microseconds kRetryBackoffBase{200};
constexpr std::chrono::microseconds kRetryBackoffCap{5000};

/// The wait before retry `attempt + 1`: doubling from the base, capped.
std::chrono::microseconds RetryBackoff(uint32_t attempt) {
  return std::min(kRetryBackoffCap, kRetryBackoffBase * (1u << std::min(attempt, 5u)));
}

/// How often a single-flight follower with a live CancelToken re-checks it
/// while waiting on the leader (the token's deadline is honoured exactly via
/// wait_until; this bounds only the explicit-cancel reaction time).
constexpr std::chrono::milliseconds kCancelPollInterval{2};

/// A deadline of "none" is the steady clock's far future. Negative values
/// and values above QueryOptions::kMaxDeadlineMs were rejected by
/// ValidateOptions before this runs.
std::chrono::steady_clock::time_point ComputeDeadline(
    std::chrono::steady_clock::time_point start, int64_t deadline_ms) {
  if (deadline_ms == 0) return std::chrono::steady_clock::time_point::max();
  return start + std::chrono::milliseconds(deadline_ms);
}

/// Failures that speak to the source's transport health, as opposed to a
/// privacy verdict — only these feed the circuit breaker.
bool IsTransportFailure(const Status& status) {
  return status.IsUnavailable() || status.IsDeadlineExceeded();
}

/// The QueryOptions fields that shape an execution but are not in the
/// warehouse key (which already covers the resolved dedup keys and the
/// quorum). Two calls coalesce only when this string and the warehouse key
/// both match exactly — a deadline or retry difference is a different
/// request.
std::string OptionsCoalescingKey(const QueryOptions& options) {
  std::string key = std::to_string(options.deadline_ms) + '|' +
                    std::to_string(options.max_retries) + '|';
  key += options.allow_warehouse ? '1' : '0';
  key += options.bypass_circuit_breaker ? '1' : '0';
  return key;
}

}  // namespace

/// Shared between the waiting Execute call and a pool task. The task owns a
/// shared_ptr too, so a fragment abandoned on deadline keeps valid state
/// until the task finishes, after which it is released. Exactly one of the
/// two sides reports the outcome to the breaker (`breaker_reported` race is
/// settled by atomic exchange): the waiter on abandonment, the task on
/// completion.
struct MediationEngine::FragmentOutcome {
  source::PiqlQuery fragment;
  Status status = Status::Internal("fragment never ran");
  source::FederatedSource::FragmentResult result;
  CircuitBreaker* breaker = nullptr;  ///< null when the query bypasses it
  std::atomic<bool> breaker_reported{false};

  void ReportToBreaker() {
    if (breaker == nullptr) return;
    if (breaker_reported.exchange(true)) return;
    if (status.ok() || !IsTransportFailure(status)) {
      // A privacy refusal is a healthy source saying no.
      breaker->OnSuccess();
    } else {
      breaker->OnFailure(std::chrono::steady_clock::now());
    }
  }
};

/// One coalesced federated execution: the leader publishes its result here
/// and every follower that joined while it was in flight shares it. The
/// shared_ptr keeps the flight alive for followers even after the leader
/// has erased it from the engine's in-flight table.
struct MediationEngine::InflightExecution {
  Mutex mu;
  CondVar cv;
  bool done GUARDED_BY(mu) = false;
  Result<IntegratedResult> result GUARDED_BY(mu){
      Status::Internal("single-flight execution still in flight")};
};

MediationEngine::MetricCells::MetricCells(trace::MetricsRegistry* m)
    : queries(m->RegisterCounter("engine.queries")),
      warehouse_hits(m->RegisterCounter("engine.warehouse_hits")),
      singleflight_leaders(m->RegisterCounter("engine.singleflight_leaders")),
      singleflight_coalesced(m->RegisterCounter("engine.singleflight_coalesced")),
      cancelled(m->RegisterCounter("engine.cancelled")),
      fragment_attempts(m->RegisterCounter("engine.fragment_attempts")),
      fragment_retries(m->RegisterCounter("engine.fragment_retries")),
      fragments_ok(m->RegisterCounter("engine.fragments_ok")),
      fragments_failed(m->RegisterCounter("engine.fragments_failed")),
      fragments_cancelled(m->RegisterCounter("engine.fragments_cancelled")),
      fragments_deadline_exceeded(
          m->RegisterCounter("engine.fragments_deadline_exceeded")),
      wal_records(m->RegisterCounter("engine.wal_records")),
      persist_failures(m->RegisterCounter("engine.persist_failures")),
      snapshots(m->RegisterCounter("engine.snapshots")),
      recoveries(m->RegisterCounter("engine.recoveries")),
      recovery_tail_discards(m->RegisterCounter("engine.recovery_tail_discards")),
      warehouse_lookup(m->RegisterLatency("stage.warehouse-lookup")),
      fragment(m->RegisterLatency("stage.fragment")),
      source_execution(m->RegisterLatency("stage.source-execution")),
      source_fragment(m->RegisterLatency("stage.source-fragment")),
      privacy_control(m->RegisterLatency("stage.privacy-control")),
      integrate(m->RegisterLatency("stage.integrate")),
      record(m->RegisterLatency("stage.record")) {}

MediationEngine::MediationEngine(Options options)
    : options_(options),
      history_(QueryHistory::Options{
          .max_resident_entries = options.max_resident_history}),
      warehouse_(Warehouse::Options{.max_bytes = kWarehouseMaxBytes}),
      control_(options.max_combined_loss, options.max_interval_loss),
      cells_(&metrics_),
      admission_(options.admission, &metrics_),
      executor_(options.worker_threads) {
  warehouse_.set_metrics(&metrics_);
}

Status MediationEngine::RegisterSource(source::FederatedSource* src) {
  if (src == nullptr) {
    return Status::InvalidArgument("RegisterSource: source is null");
  }
  if (schema_ready_) {
    return Status::InvalidArgument(
        "RegisterSource after GenerateMediatedSchema: the mediated schema is "
        "frozen; build a new engine to add source '" + src->owner() + "'");
  }
  for (const auto* existing : sources_) {
    if (existing->owner() == src->owner()) {
      return Status::AlreadyExists("a source owned by '" + src->owner() +
                                   "' is already registered");
    }
  }
  sources_.push_back(src);
  breakers_.emplace(src->owner(), std::make_unique<CircuitBreaker>(
                                      options_.circuit_breaker, &metrics_));
  return Status::OK();
}

std::vector<std::string> MediationEngine::SourceOwners() const {
  std::vector<std::string> out;
  out.reserve(sources_.size());
  for (const auto* s : sources_) out.push_back(s->owner());
  return out;
}

Status MediationEngine::GenerateMediatedSchema(const std::string& shared_key) {
  std::vector<match::ColumnSketch> sketches;
  for (const auto* src : sources_) {
    // Only a transient fault is worth another try, as for fragments.
    Result<std::vector<match::ColumnSketch>> exported = src->ExportSketches(shared_key);
    for (uint32_t attempt = 0;
         !exported.ok() && exported.status().IsUnavailable() &&
         attempt < kSketchExportRetries;
         ++attempt) {
      (void)CancelToken().SleepFor(RetryBackoff(attempt));  // a plain token sleeps in full
      exported = src->ExportSketches(shared_key);
    }
    PIYE_RETURN_NOT_OK(exported.status());
    sketches.insert(sketches.end(), exported->begin(), exported->end());
  }
  match::SchemaMatcher::Options match_options;
  match::MediatedSchemaGenerator generator(
      match::SchemaMatcher(match_options, source::DefaultClinicalNameMatcher()));
  PIYE_ASSIGN_OR_RETURN(schema_, generator.Generate(sketches));
  schema_ready_ = true;
  return Status::OK();
}

Status MediationEngine::FailClosedStatus() const {
  return Status::Unavailable(
      "mediation engine is failing closed: a durability failure means further "
      "disclosures could go unaccounted; restart the process and Recover");
}

Status MediationEngine::JournalLocked(RecordType type, const std::string& payload) {
  if (persist_failed_.load()) return FailClosedStatus();
  Status status = persist_->Append(static_cast<uint16_t>(type), payload);
  if (status.ok()) status = persist_->Sync();
  if (!status.ok()) {
    persist_failed_.store(true);
    trace::Bump(cells_.persist_failures);
    Logger::Error("mediator",
                  "journal append failed, failing closed: " + status.ToString());
    return Status::Unavailable("fail closed: " + status.ToString());
  }
  trace::Bump(cells_.wal_records);
  ++records_since_snapshot_;  // rotation happens on the history-record path
  return Status::OK();
}

Status MediationEngine::RotateSnapshotLocked() {
  const auto start = std::chrono::steady_clock::now();
  // The incremental part: floors dirtied since the last rotation. The
  // in-memory loss accumulators are NOT guarded by persist_mu_, so a
  // Record can land after this capture and before MarkClean below — which
  // is why MarkClean only cleans floors this map actually covers.
  std::map<std::string, double> dirty = history_.DirtyFloors();
  DurableState state;
  state.history = history_.Snapshot();
  state.cumulative_loss = history_.CumulativeLosses();
  state.total_history = history_.size();
  state.epoch = epoch();
  state.warehouse = warehouse_.SnapshotEntries();
  state.cells = control_.SnapshotCells();
  state.disclosures = control_.SnapshotDisclosures();
  PIYE_RETURN_NOT_OK(persist_->Rotate(EncodeSnapshot(state), dirty));
  // The rotation committed: the captured floors are durable (merged into
  // the floor index; clean ones were merged by an earlier rotation and
  // carried forward). Floors dirtied since the capture stay dirty — the
  // next rotation persists them, and the spiller below never evicts a
  // dirty entry.
  history_.MarkClean(dirty);
  {
    MutexLock index_lock(floor_index_mu_);
    floor_index_ = persist_->floors();
  }
  if (options_.hot_requesters > 0) {
    const size_t spilled = history_.SpillColdest(options_.hot_requesters);
    if (spilled > 0) {
      Logger::Info("mediator", "spilled " + std::to_string(spilled) +
                                   " cold requesters to the floor index");
    }
  }
  records_since_snapshot_ = 0;
  trace::Bump(cells_.snapshots);
  snapshots_total_.fetch_add(1);
  const auto end = std::chrono::steady_clock::now();
  last_snapshot_duration_ms_.store(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(end - start)
          .count()));
  last_snapshot_done_ns_.store(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          end.time_since_epoch())
          .count()));
  return Status::OK();
}

Status MediationEngine::RotateSnapshotBackground() {
  MutexLock lock(persist_mu_);
  if (persist_ == nullptr) {
    return Status::InvalidArgument("no persistence attached");
  }
  if (persist_failed_.load()) return FailClosedStatus();
  const Status rotated = RotateSnapshotLocked();
  if (!rotated.ok()) {
    // A durability failure *during* compaction trips the same fail-closed
    // latch as a WAL append failure: the entries themselves are durable in
    // the current generation, but a disk that cannot rotate is a disk that
    // will shortly fail an append — stop accepting work now.
    persist_failed_.store(true);
    trace::Bump(cells_.persist_failures);
    Logger::Error("mediator", "snapshot rotation failed, failing closed: " +
                                  rotated.ToString());
  }
  return rotated;
}

Status MediationEngine::RecordDurably(
    HistoryEntry entry, std::shared_ptr<const relational::Table> warehouse_table,
    const std::string& warehouse_key) {
  if (!persist_attached_.load()) {
    history_.Record(std::move(entry));
    if (warehouse_table != nullptr) {
      warehouse_.Put(warehouse_key, std::move(warehouse_table), epoch());
    }
    return Status::OK();
  }
  MutexLock lock(persist_mu_);
  if (persist_failed_.load()) return FailClosedStatus();
  // Sequence numbers are assigned under persist_mu_, so WAL order and
  // in-memory order agree and recovery replays exactly what executed.
  entry.sequence_number = history_.size();
  // The base loss must come from the *durable* floor: a spilled requester's
  // state faults in from the floor index here, before any accounting. A
  // load failure withholds the answer — default-allow would let a crashed
  // index erase budgets.
  auto base_loss = history_.DurableCumulativeLoss(entry.requester);
  if (!base_loss.ok()) {
    persist_failed_.store(true);
    trace::Bump(cells_.persist_failures);
    Logger::Error("mediator", "budget floor load failed, failing closed: " +
                                  base_loss.status().ToString());
    return Status::Unavailable(
        "answer withheld (fail closed): the requester's durable budget floor "
        "could not be loaded: " + base_loss.status().ToString());
  }
  // One epoch read for both the journaled and the in-memory put: a
  // concurrent AdvanceEpoch between two reads would journal one epoch and
  // cache another, and a later eviction would then diverge on recovery.
  const uint64_t put_epoch = epoch();
  HistoryRecord record;
  record.cumulative_after =
      *base_loss + (entry.released ? entry.aggregated_privacy_loss : 0.0);
  record.entry = entry;
  Status status = persist_->Append(static_cast<uint16_t>(RecordType::kHistoryEntry),
                                   EncodeHistoryRecord(record));
  if (status.ok() && warehouse_table != nullptr) {
    status = persist_->Append(
        static_cast<uint16_t>(RecordType::kWarehousePut),
        EncodeWarehousePutRecord(warehouse_key, put_epoch, *warehouse_table));
  }
  if (status.ok()) status = persist_->Sync();
  if (!status.ok()) {
    persist_failed_.store(true);
    trace::Bump(cells_.persist_failures);
    Logger::Error("mediator",
                  "durability failure, failing closed: " + status.ToString());
    return Status::Unavailable(
        "answer withheld (fail closed): the disclosure could not be durably "
        "recorded: " + status.ToString());
  }
  trace::Bump(cells_.wal_records);
  history_.Record(std::move(entry));
  if (warehouse_table != nullptr) {
    warehouse_.Put(warehouse_key, std::move(warehouse_table), put_epoch);
  }
  if (options_.snapshot_every_records > 0 &&
      ++records_since_snapshot_ >= options_.snapshot_every_records &&
      snapshotter_ != nullptr) {
    // Off the query path: the background snapshotter coalesces bursts and
    // rotates when it next acquires persist_mu_. A rotation failure there
    // trips the same fail-closed latch this path would have.
    snapshotter_->Trigger();
  }
  return Status::OK();
}

Status MediationEngine::Recover(const std::string& dir) {
  MutexLock lock(persist_mu_);
  if (persist_ != nullptr) {
    return Status::InvalidArgument("Recover: persistence is already attached");
  }
  if (history_.size() != 0) {
    return Status::InvalidArgument(
        "Recover requires a fresh engine (non-empty history)");
  }
  const auto recover_start = std::chrono::steady_clock::now();
  persist::StateLog::RecoveredState recovered;
  PIYE_ASSIGN_OR_RETURN(persist_, persist::StateLog::Open(dir, &recovered));
  {
    MutexLock index_lock(floor_index_mu_);
    floor_index_ = recovered.floors;
  }

  DurableState state;
  if (!recovered.snapshot.empty()) {
    auto decoded = DecodeSnapshot(recovered.snapshot);
    if (!decoded.ok()) {
      // The snapshot passed its checksum but its payload does not parse — a
      // schema incompatibility, not disk rot. Refusing to start is the only
      // fail-closed option left.
      persist_.reset();
      return decoded.status();
    }
    state = std::move(*decoded);
  }

  std::vector<HistoryEntry> entries = std::move(state.history);
  std::map<std::string, double> floors = std::move(state.cumulative_loss);
  uint64_t recovered_epoch = state.epoch;
  std::map<std::string, Warehouse::SnapshotEntry> materialized;
  for (auto& w : state.warehouse) {
    const std::string key = w.fingerprint;
    materialized[key] = std::move(w);
  }
  std::vector<PrivacyControl::SensitiveCellSpec> cells = std::move(state.cells);
  std::vector<PrivacyControl::DisclosureSpec> disclosures =
      std::move(state.disclosures);

  size_t replayed = 0;
  for (const auto& rec : recovered.records) {
    Status bad;
    switch (static_cast<RecordType>(rec.type)) {
      case RecordType::kHistoryEntry: {
        auto r = DecodeHistoryRecord(rec.payload);
        if (!r.ok()) {
          bad = r.status();
          break;
        }
        double& floor = floors[r->entry.requester];
        if (r->cumulative_after > floor) floor = r->cumulative_after;
        entries.push_back(std::move(r->entry));
        break;
      }
      case RecordType::kWarehousePut: {
        auto r = DecodeWarehousePutRecord(rec.payload);
        if (!r.ok()) {
          bad = r.status();
          break;
        }
        const std::string key = r->fingerprint;
        materialized[key] = std::move(*r);
        break;
      }
      case RecordType::kWarehouseEvict: {
        auto r = DecodeWarehouseEvictRecord(rec.payload);
        if (!r.ok()) {
          bad = r.status();
          break;
        }
        for (auto it = materialized.begin(); it != materialized.end();) {
          it = it->second.epoch < *r ? materialized.erase(it) : std::next(it);
        }
        break;
      }
      case RecordType::kEpochAdvance: {
        auto r = DecodeEpochRecord(rec.payload);
        if (!r.ok()) {
          bad = r.status();
          break;
        }
        recovered_epoch = std::max(recovered_epoch, *r);
        break;
      }
      case RecordType::kSensitiveCell: {
        auto r = DecodeCellRecord(rec.payload);
        if (!r.ok()) {
          bad = r.status();
          break;
        }
        cells.push_back(std::move(*r));
        break;
      }
      case RecordType::kDisclosure: {
        auto r = DecodeDisclosureRecord(rec.payload);
        if (!r.ok()) {
          bad = r.status();
          break;
        }
        disclosures.push_back(std::move(*r));
        break;
      }
      default:
        bad = Status::ParseError("unknown WAL record type " +
                                 std::to_string(rec.type));
    }
    if (!bad.ok()) {
      // A frame that passed its checksum but does not decode is a schema
      // incompatibility (an older or newer record version), not a torn
      // write: discarding it would drop every later record and the budget
      // it holds. Refuse to start, as for an undecodable snapshot.
      persist_.reset();
      return bad;
    }
    ++replayed;
  }

  // The entry ring can hold entries for a requester whose budget state was
  // spilled before the snapshot was taken (the ring keeps the last N entries
  // regardless of which requester states are resident). Restoring such a
  // requester from its bounded, partial ring entries alone would resurrect
  // it *below* its durable floor — and resident state shadows the floor
  // index on every later budget decision. Raise every requester seen in the
  // recovered entries to its indexed floor before Restore; an unreadable
  // index entry refuses recovery (fail closed).
  {
    std::set<std::string> restored;
    for (const auto& e : entries) restored.insert(e.requester);
    for (const auto& requester : restored) {
      auto indexed =
          recovered.floors->Lookup(persist::FloorIndex::KeyFor(requester));
      if (!indexed.ok()) {
        persist_.reset();
        return indexed.status();
      }
      if (indexed->has_value()) {
        double& floor = floors[requester];
        floor = std::max(floor, **indexed);
      }
    }
  }

  PIYE_RETURN_NOT_OK(
      history_.Restore(std::move(entries), floors, state.total_history));
  epoch_.store(recovered_epoch, std::memory_order_relaxed);
  for (auto& [fingerprint, entry] : materialized) {
    warehouse_.Put(fingerprint, std::move(entry.table), entry.epoch);
  }
  PIYE_RETURN_NOT_OK(control_.Replay(cells, disclosures));
  last_recovery_replay_ms_.store(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - recover_start)
          .count()));

  // Spilled requesters stay in the floor index; their first returning query
  // faults the floor back in through this provider before any budget
  // decision. The provider takes only the leaf floor_index_mu_, so it is
  // safe to call both with and without persist_mu_ held.
  history_.set_floor_provider(
      [this](const std::string& requester) -> Result<std::optional<double>> {
        std::shared_ptr<const persist::FloorIndex> index;
        {
          MutexLock index_lock(floor_index_mu_);
          index = floor_index_;
        }
        if (index == nullptr) return std::optional<double>();
        return index->Lookup(persist::FloorIndex::KeyFor(requester));
      });

  persist_attached_.store(true);
  // Fold the recovered state into a fresh generation: a damaged tail is
  // healed on disk, and the next restart replays a short WAL instead of an
  // ever-growing one.
  PIYE_RETURN_NOT_OK(RotateSnapshotLocked());
  control_.set_journal([this](const PrivacyControl::JournalEvent& event) {
    MutexLock journal_lock(persist_mu_);
    if (event.kind == PrivacyControl::JournalEvent::Kind::kCell) {
      return JournalLocked(RecordType::kSensitiveCell,
                           EncodeCellRecord(event.cell));
    }
    return JournalLocked(RecordType::kDisclosure,
                         EncodeDisclosureRecord(event.disclosure));
  });

  snapshotter_ = std::make_unique<persist::Snapshotter>(
      [this] { return RotateSnapshotBackground(); });
  snapshotter_->Start();

  trace::Bump(cells_.recoveries);
  if (!recovered.wal_clean) {
    trace::Bump(cells_.recovery_tail_discards);
    Logger::Warn("mediator", "recovery discarded a damaged log tail: " +
                                 recovered.tail_detail);
  }
  Logger::Info("mediator",
               "recovered " + std::to_string(history_.size()) +
                   " history entries from '" + dir + "' (" +
                   std::to_string(replayed) + " WAL records replayed) at "
                   "generation " + std::to_string(persist_->generation()));
  return Status::OK();
}

Status MediationEngine::ArmPersistKillPoint(persist::KillPoint kill_point,
                                            uint64_t after_appends) {
  MutexLock lock(persist_mu_);
  if (persist_ == nullptr) {
    return Status::InvalidArgument(
        "ArmPersistKillPoint: no persistence attached (call Recover first)");
  }
  persist_->wal()->ArmKillPoint(kill_point, after_appends);
  return Status::OK();
}

Status MediationEngine::ArmRotateKillPoint(persist::RotateKillPoint kill_point) {
  MutexLock lock(persist_mu_);
  if (persist_ == nullptr) {
    return Status::InvalidArgument(
        "ArmRotateKillPoint: no persistence attached (call Recover first)");
  }
  persist_->ArmRotateKillPoint(kill_point);
  return Status::OK();
}

Status MediationEngine::TriggerSnapshot(bool wait) {
  persist::Snapshotter* snapshotter = nullptr;
  {
    MutexLock lock(persist_mu_);
    if (persist_ == nullptr) {
      return Status::InvalidArgument(
          "TriggerSnapshot: no persistence attached (call Recover first)");
    }
    snapshotter = snapshotter_.get();
  }
  if (persist_failed_.load()) return FailClosedStatus();
  if (!wait) {
    snapshotter->Trigger();
    return Status::OK();
  }
  return snapshotter->TriggerAndWait();
}

void MediationEngine::AdvanceEpoch() {
  const uint64_t next = epoch_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (!persist_attached_.load()) return;
  MutexLock lock(persist_mu_);
  if (persist_failed_.load()) return;
  // Recovery takes max(snapshot epoch, journaled epochs), so out-of-order
  // appends from concurrent advancers are harmless.
  (void)JournalLocked(RecordType::kEpochAdvance, EncodeEpochRecord(next));
}

Status MediationEngine::EvictWarehouseOlderThan(uint64_t epoch_horizon) {
  if (!persist_attached_.load()) {
    warehouse_.EvictOlderThan(epoch_horizon);
    return Status::OK();
  }
  // Evict before releasing persist_mu_ (lock order persist → shard, as in
  // RecordDurably), so WAL order = in-memory order: no rotation can snapshot
  // entries this eviction is about to drop, and no release's put can land
  // in the gap only to be evicted here after its journal record.
  MutexLock lock(persist_mu_);
  PIYE_RETURN_NOT_OK(JournalLocked(RecordType::kWarehouseEvict,
                                   EncodeWarehouseEvictRecord(epoch_horizon)));
  warehouse_.EvictOlderThan(epoch_horizon);
  return Status::OK();
}

MediationEngine::HealthReport MediationEngine::Health() const {
  HealthReport report;
  report.schema_ready = schema_ready_;
  report.persistence_ok = !persist_failed_.load();
  {
    MutexLock lock(persist_mu_);
    report.persistence_enabled = persist_ != nullptr;
    if (persist_ != nullptr) {
      report.wal_generation = persist_->generation();
      report.wal_live_bytes = persist_->wal()->synced_bytes();
      report.records_since_snapshot = records_since_snapshot_;
    }
  }
  report.snapshots_total = snapshots_total_.load();
  report.last_snapshot_duration_ms = last_snapshot_duration_ms_.load();
  const uint64_t snapshot_done_ns = last_snapshot_done_ns_.load();
  if (snapshot_done_ns != 0) {
    const uint64_t now_ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
    report.last_snapshot_age_ms =
        now_ns >= snapshot_done_ns ? (now_ns - snapshot_done_ns) / 1000000 : 0;
  }
  report.last_recovery_replay_ms = last_recovery_replay_ms_.load();
  report.resident_requesters = history_.resident_requesters();
  report.spilled_requesters_total = history_.spilled_total();
  {
    MutexLock index_lock(floor_index_mu_);
    if (floor_index_ != nullptr) {
      report.floor_index_requesters = floor_index_->count();
    }
  }
  report.sources_total = sources_.size();
  for (const auto* src : sources_) {
    SourceHealth health;
    health.owner = src->owner();
    health.transport = src->transport_stats();
    const CircuitBreaker* breaker = breakers_.at(src->owner()).get();
    const CircuitBreaker::State state = breaker->state();
    health.breaker_state = CircuitBreaker::StateName(state);
    health.consecutive_failures = breaker->consecutive_failures();
    health.shed_total = breaker->shed_total();
    health.opened_total = breaker->opened_total();
    if (state != CircuitBreaker::State::kOpen) ++report.sources_admitting;
    report.sources.push_back(std::move(health));
  }
  report.ready = report.schema_ready && report.persistence_ok &&
                 report.sources_total > 0 && report.sources_admitting > 0;
  report.admission_inflight = admission_.inflight();
  report.admission_queue_depth = admission_.queue_depth();
  report.admitted_total = metrics_.counter("engine.admitted");
  report.shed_total = metrics_.counter("engine.shed");
  report.cancelled_total = metrics_.counter("engine.cancelled");
  return report;
}

Status MediationEngine::ValidateOptions(const QueryOptions& options) const {
  if (options.deadline_ms < 0) {
    return Status::InvalidArgument(
        "QueryOptions.deadline_ms must be >= 0 (0 = no deadline), got " +
        std::to_string(options.deadline_ms));
  }
  if (options.deadline_ms > QueryOptions::kMaxDeadlineMs) {
    return Status::InvalidArgument(
        "QueryOptions.deadline_ms " + std::to_string(options.deadline_ms) +
        " exceeds the limit of " + std::to_string(QueryOptions::kMaxDeadlineMs) +
        " (one day; 0 = no deadline)");
  }
  if (options.max_retries > QueryOptions::kMaxRetriesLimit) {
    return Status::InvalidArgument(
        "QueryOptions.max_retries " + std::to_string(options.max_retries) +
        " exceeds the limit of " +
        std::to_string(QueryOptions::kMaxRetriesLimit) +
        " (a runaway retry count amplifies overload)");
  }
  if (options.min_sources > sources_.size()) {
    return Status::InvalidArgument(
        "QueryOptions.min_sources " + std::to_string(options.min_sources) +
        " exceeds the " + std::to_string(sources_.size()) +
        " registered source(s); the quorum can never be met");
  }
  return Status::OK();
}

void MediationEngine::RunFragmentWithRetry(
    const source::FederatedSource* src, const source::PiqlQuery& fragment,
    const QueryOptions& options, std::chrono::steady_clock::time_point deadline,
    const CancelToken& cancel, const MetricCells& cells,
    FragmentOutcome* outcome) {
  trace::ScopedSpan span("source-fragment", nullptr, cells.source_fragment);
  // The caller gave up (explicit cancel or whole-query deadline): the source
  // is not to blame, so the breaker hears nothing about this fragment.
  auto abandoned_by_caller = [&] {
    outcome->status = options.cancel.status();
    outcome->breaker_reported.store(true);  // suppress blame
    trace::Bump(cells.fragments_cancelled);
  };
  for (uint32_t attempt = 0;; ++attempt) {
    if (cancel.cancelled()) {
      if (options.cancel.cancelled()) {
        abandoned_by_caller();
        return;
      }
      // Only the per-source fan-out deadline fired: the source *is* slow,
      // which is exactly what the breaker exists to count.
      outcome->status = Status::DeadlineExceeded(
          "per-source deadline exceeded before attempt " +
          std::to_string(attempt + 1));
      trace::Bump(cells.fragments_failed);
      trace::Bump(cells.fragments_deadline_exceeded);
      break;
    }
    trace::Bump(cells.fragment_attempts);
    auto result = src->ExecuteFragment(fragment, cancel);
    if (result.ok()) {
      outcome->status = Status::OK();
      outcome->result = std::move(result).value();
      trace::Bump(cells.fragments_ok);
      break;
    }
    outcome->status = result.status();
    if (result.status().IsCancelled() ||
        (result.status().IsDeadlineExceeded() && options.cancel.cancelled())) {
      abandoned_by_caller();
      return;
    }
    // Only transient faults are worth retrying; a privacy refusal or a
    // malformed fragment will refuse identically every time.
    if (!result.status().IsUnavailable() || attempt >= options.max_retries) {
      trace::Bump(cells.fragments_failed);
      // A cooperative source that woke at the fan-out deadline lands here
      // (instead of the waiter's abandonment path) — keep the deadline
      // counter accurate either way.
      if (result.status().IsDeadlineExceeded()) {
        trace::Bump(cells.fragments_deadline_exceeded);
      }
      break;
    }
    const auto backoff = RetryBackoff(attempt);
    if (std::chrono::steady_clock::now() + backoff >= deadline) {
      trace::Bump(cells.fragments_failed);
      break;  // the waiter is about to give up on us anyway
    }
    trace::Bump(cells.fragment_retries);
    if (!cancel.SleepFor(backoff)) continue;  // fired mid-backoff: classify at top
  }
  outcome->ReportToBreaker();
}

std::vector<std::string> MediationEngine::ResolveDedupKeys(
    const std::vector<std::string>& keys) const {
  std::vector<std::string> resolved;
  if (keys.empty()) return resolved;
  // Dedup keys are requester-facing names: resolve them loosely to mediated
  // attribute names, keeping an unresolvable name as given.
  QueryFragmenter fragmenter(&schema_, source::DefaultClinicalNameMatcher());
  resolved.reserve(keys.size());
  for (const auto& key : keys) {
    auto attr = fragmenter.Resolve(key);
    resolved.push_back(attr.ok() ? (*attr)->name : key);
  }
  return resolved;
}

Result<MediationEngine::IntegratedResult> MediationEngine::Execute(
    const source::PiqlQuery& query, const QueryOptions& options) {
  if (!schema_ready_) {
    return Status::Internal("GenerateMediatedSchema must run before Execute");
  }
  if (persist_failed_.load()) return FailClosedStatus();
  PIYE_RETURN_NOT_OK(ValidateOptions(options));
  trace::Bump(cells_.queries);

  // The transport-authenticated requester overrides the query's self-claim.
  const source::PiqlQuery* effective_query = &query;
  source::PiqlQuery reidentified;
  if (!options.requester.empty() && options.requester != query.requester) {
    reidentified = query;
    reidentified.requester = options.requester;
    effective_query = &reidentified;
  }

  // Admission runs ahead of the warehouse, single-flight, history, budget,
  // and the breakers: a shed or pre-expired query touches none of them. The
  // permit is held for the whole call — a coalesced follower occupies a slot
  // too (it is live work the caller is waiting on).
  PIYE_ASSIGN_OR_RETURN(
      AdmissionController::Permit permit,
      admission_.Admit(effective_query->requester, options.cancel));

  // The warehouse key: the effective query's canonical binary identity plus
  // every option that shapes the cached table — the resolved dedup keys and
  // the quorum (0 and 1 both accept any non-empty answer set).
  std::vector<std::string> dedup_keys = ResolveDedupKeys(options.dedup_keys);
  std::string key;
  {
    persist::Encoder enc;
    enc.Reserve(256);  // covers a typical query without regrowth
    effective_query->AppendCanonicalKey(&enc);
    enc.PutStringVector(dedup_keys);
    enc.PutU64(std::max<size_t>(options.min_sources, 1));
    key = enc.Take();
  }

  // A warehouse hit is served here, ahead of single-flight: it takes no
  // engine-wide lock, allocates no flight and copies no result.
  trace::Trace query_trace;
  if (options.allow_warehouse) {
    Warehouse::TableHandle cached;
    {
      trace::ScopedSpan span("warehouse-lookup", &query_trace,
                             cells_.warehouse_lookup);
      cached = warehouse_.Get(key, epoch(), options_.warehouse_max_age);
    }
    if (cached != nullptr) {
      trace::Bump(cells_.warehouse_hits);
      IntegratedResult out;
      out.table_handle = std::move(cached);  // zero-copy: the cached entry
      out.from_warehouse = true;
      out.timings = query_trace.TakeTimings();
      return out;
    }
  }

  if (!options.coalesce) {
    return ExecuteUncoalesced(*effective_query, options, key, dedup_keys,
                              &query_trace);
  }

  // Single-flight: identical concurrent misses (same warehouse key, which
  // covers the requester, and same options) share one federated execution.
  // Different requesters never coalesce, so the budget-neutrality rule holds
  // by construction.
  const std::string flight_key = key + '\x1f' + OptionsCoalescingKey(options);
  std::shared_ptr<InflightExecution> flight;
  bool leader = false;
  {
    MutexLock lock(inflight_mu_);
    auto it = inflight_.find(flight_key);
    if (it == inflight_.end()) {
      flight = std::make_shared<InflightExecution>();
      inflight_.emplace(flight_key, flight);
      leader = true;
    } else {
      flight = it->second;
    }
  }
  if (!leader) {
    // Join the in-flight execution: no source fan-out, no retries, and no
    // additional budget charge for this caller — the leader's (single)
    // history record already accounts the disclosure for this requester.
    trace::Bump(cells_.singleflight_coalesced);
    MutexLock lock(flight->mu);
    if (!options.cancel.can_fire()) {
      while (!flight->done) flight->cv.Wait(lock);
    } else {
      // The flight's cv is only notified by its leader, so a follower whose
      // token fires polls its way out (the deadline itself is honoured
      // exactly via wait_until). Leaving early is budget-neutral: this
      // caller was never going to be charged.
      while (!flight->done) {
        auto wake = std::chrono::steady_clock::now() + kCancelPollInterval;
        if (options.cancel.has_deadline()) {
          wake = std::min(wake, options.cancel.deadline());
        }
        flight->cv.WaitUntil(lock, wake);
        if (!flight->done && options.cancel.cancelled()) {
          trace::Bump(cells_.cancelled);
          return options.cancel.status();
        }
      }
    }
    return flight->result;
  }
  trace::Bump(cells_.singleflight_leaders);
  Result<IntegratedResult> result = ExecuteUncoalesced(
      *effective_query, options, key, dedup_keys, &query_trace);
  {
    // Remove the flight *before* publishing: a caller arriving after this
    // point starts a fresh execution (correct — the previous answer is now
    // history, and the warehouse serves repeats), while everyone who joined
    // earlier shares the result below.
    MutexLock lock(inflight_mu_);
    inflight_.erase(flight_key);
  }
  {
    MutexLock lock(flight->mu);
    flight->result = result;
    flight->done = true;
  }
  flight->cv.NotifyAll();
  return result;
}

Result<MediationEngine::IntegratedResult> MediationEngine::ExecuteUncoalesced(
    const source::PiqlQuery& query, const QueryOptions& options,
    const std::string& warehouse_key, const std::vector<std::string>& dedup_keys,
    trace::Trace* query_trace) {
  IntegratedResult out;

  // Sequence-level budget for the requester, against the *durable* floor: a
  // spilled requester's first returning query faults its floor back in here,
  // before any admission or budget decision. Fail closed — a floor that
  // cannot be loaded refuses the query rather than defaulting to a fresh
  // budget.
  auto cumulative = history_.DurableCumulativeLoss(query.requester);
  if (!cumulative.ok()) {
    return Status::Unavailable(
        "refusing query: the requester's durable budget floor could not be "
        "loaded (fail closed): " + cumulative.status().ToString());
  }
  if (*cumulative >= options_.max_cumulative_loss) {
    return Status::PrivacyViolation("requester '" + query.requester +
                                    "' has exhausted the cumulative loss budget");
  }

  // Fragmentation.
  QueryFragmenter fragmenter(&schema_, source::DefaultClinicalNameMatcher());
  QueryFragmenter::FragmentationResult fragments;
  {
    trace::ScopedSpan span("fragment", query_trace, cells_.fragment);
    PIYE_ASSIGN_OR_RETURN(fragments,
                          fragmenter.Fragment(query, SourceOwners()));
  }
  out.sources_skipped = fragments.skipped;

  // Per-source execution (each runs its full Fig. 2(a) pipeline), fanned out
  // across the pool. Outcomes are indexed by fragment order, so integration
  // below is deterministic however the tasks interleave.
  struct Dispatch {
    std::string owner;
    std::shared_ptr<FragmentOutcome> outcome;
    std::future<void> done;
  };
  std::vector<Dispatch> dispatches;
  size_t transport_skips = 0;  // unavailable / past-deadline / shed, not refusals
  {
    trace::ScopedSpan span("source-execution", query_trace, cells_.source_execution);
    const auto fanout_start = std::chrono::steady_clock::now();
    // The effective per-fragment deadline is the tighter of the per-source
    // deadline and the caller token's whole-query deadline.
    auto deadline = ComputeDeadline(fanout_start, options.deadline_ms);
    if (options.cancel.has_deadline()) {
      deadline = std::min(deadline, options.cancel.deadline());
    }
    // What fragment tasks poll: the caller's token tightened with the
    // fan-out deadline, so a hung source wakes at the deadline and frees its
    // pool thread instead of sleeping out the hang.
    const CancelToken frag_token = options.cancel.WithDeadline(deadline);
    for (const auto& frag : fragments.fragments) {
      const source::FederatedSource* src = nullptr;
      for (const auto* s : sources_) {
        if (s->owner() == frag.source) {
          src = s;
          break;
        }
      }
      if (src == nullptr) continue;
      CircuitBreaker* breaker = options.bypass_circuit_breaker
                                    ? nullptr
                                    : breakers_.at(frag.source).get();
      if (breaker != nullptr &&
          !breaker->Admit(std::chrono::steady_clock::now())) {
        // Shed without dialing: the breaker already counted it.
        ++transport_skips;
        out.sources_skipped[frag.source] =
            Status::Unavailable(
                "circuit breaker open: source shed after repeated transport "
                "failures")
                .ToString();
        continue;
      }
      Dispatch d;
      d.owner = frag.source;
      d.outcome = std::make_shared<FragmentOutcome>();
      d.outcome->fragment = frag.query;
      d.outcome->breaker = breaker;
      auto outcome = d.outcome;  // keep alive even if the waiter gives up
      // The executor-level gate uses the *caller* token: a task dequeued
      // after the caller gave up never starts (the whole query returns the
      // cancellation status, so its empty outcome is never read). Deadline
      // handling stays inside RunFragmentWithRetry, which can classify it.
      d.done = executor_.Submit(
          options.cancel,
          [src, outcome, options, deadline, frag_token, cells = &cells_] {
            RunFragmentWithRetry(src, outcome->fragment, options, deadline,
                                 frag_token, *cells, outcome.get());
          });
      dispatches.push_back(std::move(d));
    }

    const bool bounded_wait =
        options.deadline_ms != 0 || options.cancel.has_deadline();
    for (auto& d : dispatches) {
      if (!bounded_wait) {
        d.done.wait();
      } else if (d.done.wait_until(deadline) != std::future_status::ready) {
        // Abandon the fragment: the task still runs to completion on its
        // pool thread (it owns a shared_ptr to the outcome), but this query
        // proceeds without it. From the breaker's point of view the source
        // blew its deadline — unless the task finishes first and reports a
        // different outcome (the exchange settles the race), or the caller
        // itself gave up, in which case no one is blamed.
        if (options.cancel.cancelled()) {
          d.outcome->breaker_reported.store(true);  // suppress blame
        } else if (d.outcome->breaker != nullptr &&
                   !d.outcome->breaker_reported.exchange(true)) {
          d.outcome->breaker->OnFailure(std::chrono::steady_clock::now());
        }
        trace::Bump(cells_.fragments_deadline_exceeded);
        d.outcome = nullptr;
        out.sources_skipped[d.owner] =
            Status::DeadlineExceeded("per-source deadline of " +
                                     std::to_string(options.deadline_ms) +
                                     " ms exceeded")
                .ToString();
      }
    }
  }

  // Cooperative whole-query stop: nothing was released, so nothing is
  // charged or recorded — the fired token simply unwinds the call.
  if (options.cancel.cancelled()) {
    trace::Bump(cells_.cancelled);
    return options.cancel.status();
  }

  struct Answer {
    std::string owner;
    source::FederatedSource::FragmentResult fragment;
  };
  std::vector<Answer> answers;
  for (auto& d : dispatches) {
    if (d.outcome == nullptr) {  // timed out above
      ++transport_skips;
      continue;
    }
    if (!d.outcome->status.ok()) {
      if (d.outcome->status.IsPrivacyViolation()) {
        Logger::Info("mediator", "source '" + d.owner + "' refused: " +
                                     d.outcome->status.message());
      }
      if (IsTransportFailure(d.outcome->status)) {
        ++transport_skips;
      }
      out.sources_skipped[d.owner] = d.outcome->status.ToString();
      continue;
    }
    answers.push_back({d.owner, std::move(d.outcome->result)});
  }
  auto skip_detail = [&out] {
    std::string detail;
    for (const auto& [owner, reason] : out.sources_skipped) {
      detail += " [" + owner + ": " + reason + "]";
    }
    return detail;
  };
  if (answers.empty()) {
    // Distinguish "everyone refused on privacy grounds" (a verdict) from
    // "everyone was down, too slow, or shed" (a transport failure, retryable).
    if (!out.sources_skipped.empty() &&
        transport_skips == out.sources_skipped.size()) {
      return Status::Unavailable(
          "no source answered: every relevant source was unavailable or past "
          "its deadline:" + skip_detail());
    }
    return Status::PrivacyViolation(
        "no source could serve the query within its privacy constraints");
  }
  if (options.min_sources > 1 && answers.size() < options.min_sources) {
    std::string msg = "quorum not met: " + std::to_string(answers.size()) +
                      " of the required " + std::to_string(options.min_sources) +
                      " sources answered";
    const std::string detail = skip_detail();
    if (!detail.empty()) msg += ";" + detail;
    return Status::Unavailable(msg);
  }

  // Privacy control: greedily suppress the highest-loss source results until
  // the combined loss passes (the violating source "is notified" — here,
  // recorded in sources_suppressed).
  double combined = 0.0;
  {
    trace::ScopedSpan span("privacy-control", query_trace, cells_.privacy_control);
    std::vector<PrivacyControl::TaggedResult> tagged;
    tagged.reserve(answers.size());
    for (const auto& a : answers) {
      tagged.push_back({a.owner, a.fragment.column_tags,
                        a.fragment.losses.privacy_loss, a.fragment.loss_budget});
    }
    for (;;) {
      auto check = control_.CheckIntegratedResults(tagged);
      if (check.ok()) {
        combined = *check;
        break;
      }
      if (answers.size() <= 1) {
        HistoryEntry entry;
        entry.requester = query.requester;
        entry.purpose = query.purpose;
        entry.query_key = warehouse_key;
        entry.released = false;
        // A refusal is part of the sequence too: it must survive a crash,
        // or the auditor's view of the history diverges.
        PIYE_RETURN_NOT_OK(RecordDurably(std::move(entry), nullptr, warehouse_key));
        return check.status();
      }
      // Drop the answer with the highest tagged loss.
      size_t worst = 0;
      double worst_loss = -1.0;
      for (size_t i = 0; i < tagged.size(); ++i) {
        const double l = tagged[i].privacy_loss;
        if (l > worst_loss) {
          worst_loss = l;
          worst = i;
        }
      }
      // The paper: violating results are excluded "and the remote source(s)
      // is notified about the violation" — here, the notification channel is
      // the log plus the sources_suppressed report.
      Logger::Warn("mediator", "privacy control suppressed results of '" +
                                   answers[worst].owner + "' for requester '" +
                                   query.requester + "': " +
                                   check.status().message());
      out.sources_suppressed.push_back(answers[worst].owner);
      answers.erase(answers.begin() + static_cast<ptrdiff_t>(worst));
      tagged.erase(tagged.begin() + static_cast<ptrdiff_t>(worst));
    }
  }

  // Integration + private dedup on the already-resolved keys.
  {
    trace::ScopedSpan span("integrate", query_trace, cells_.integrate);
    ResultIntegrator integrator(&schema_);
    std::vector<ResultIntegrator::SourceResult> source_results;
    for (auto& a : answers) {
      source_results.push_back(
          integrator.FromSource(a.owner, std::move(a.fragment.table)));
      out.sources_answered.push_back(a.owner);
    }
    PIYE_ASSIGN_OR_RETURN(relational::Table integrated,
                          integrator.Integrate(source_results, dedup_keys));
    out.table_handle =
        std::make_shared<const relational::Table>(std::move(integrated));
    out.combined_privacy_loss = combined;
  }

  // History + warehouse, behind the durability barrier: in durable mode the
  // record is on disk before the answer leaves this function, and a failure
  // to get it there withholds the answer. The warehouse stores the same
  // refcounted table the caller receives — no copy.
  {
    trace::ScopedSpan span("record", query_trace, cells_.record);
    HistoryEntry entry;
    entry.requester = query.requester;
    entry.purpose = query.purpose;
    entry.query_key = warehouse_key;
    entry.sources_answered = out.sources_answered;
    entry.sources_refused = out.sources_suppressed;
    entry.aggregated_privacy_loss = combined;
    entry.released = true;
    PIYE_RETURN_NOT_OK(RecordDurably(
        std::move(entry), options.allow_warehouse ? out.table_handle : nullptr,
        warehouse_key));
  }
  out.timings = query_trace->TakeTimings();
  return out;
}

}  // namespace mediator
}  // namespace piye
