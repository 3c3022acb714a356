#ifndef PIYE_MEDIATOR_WAREHOUSE_H_
#define PIYE_MEDIATOR_WAREHOUSE_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/sync.h"
#include "common/trace.h"
#include "relational/table.h"

namespace piye {
namespace mediator {

/// The local materialization side of the engine's hybrid warehousing /
/// virtual-querying design (Section 5: the hybrid is chosen "due to the
/// quick-response needed during emergency situations"). Integrated results
/// are cached under their query fingerprint with a logical epoch; a lookup
/// specifies how stale an answer it will accept. Fingerprints are opaque
/// byte strings: the engine uses its canonical binary warehouse key (see
/// `MediationEngine::Execute`), compared by exact bytes.
///
/// Scale model — this store sits on the hot read path of every query, so it
/// is built to serve many concurrent `MediationEngine::Execute` callers
/// without a convoy:
///
///  * **Sharded.** Fingerprints hash across `kShards`
///    independent shards, each with its own mutex — hot fingerprints no
///    longer serialize behind cold ones, and no operation takes a global
///    lock.
///  * **Zero-copy reads.** Entries are `shared_ptr<const Table>`; `Get`
///    hits and `SnapshotEntries` hand out refcounted handles instead of
///    deep table copies. A durability snapshot of the whole cache is
///    O(entries) pointer copies taken one shard at a time — it can no
///    longer stall concurrent readers for the duration of a full deep copy.
///  * **Memory-bounded.** `Options::max_bytes` caps the cache
///    (`relational::Table::ApproxBytes` accounting, budget split evenly
///    across shards). When a `Put` would exceed a shard's slice, entries
///    are evicted oldest-epoch-first, least-recently-used within an epoch,
///    until the new entry fits (an entry larger than the whole slice is
///    evicted straight away — the cache never holds more than its budget).
///  * **Epoch-monotonic.** `Put` keeps the max-epoch entry for a
///    fingerprint: a recovery replay (or any stale writer) can never clobber
///    a newer materialization with an older one.
///
/// Observability: with `set_metrics` wired (the engine does this), every
/// put, hit, miss, and evicted entry is also counted in the shared
/// `trace::MetricsRegistry` (`warehouse.puts`, `warehouse.hits`,
/// `warehouse.misses`, `warehouse.evicted_entries`, `warehouse.evictions`,
/// `warehouse.bytes_evicted`, `warehouse.stale_put_drops`) through cached
/// counter cells, so the hot path never touches the registry's name map.
/// `set_metrics` must be called before concurrent use (the engine wires it
/// at construction).
class Warehouse {
 public:
  /// Refcounted immutable handle to a materialized result.
  using TableHandle = std::shared_ptr<const relational::Table>;

  /// Independent shards, each with its own lock (a power of two).
  static constexpr size_t kShards = 16;

  struct Options {
    /// Whole-cache byte budget (0 = unbounded). Each shard enforces
    /// max_bytes / kShards.
    size_t max_bytes = 0;
  };

  Warehouse() : Warehouse(Options{}) {}
  explicit Warehouse(const Options& options);

  /// Stores a materialized result at the given logical epoch. If an entry
  /// with a *newer* epoch already exists for the fingerprint, the put is
  /// dropped (recovery replays must not roll a materialization back).
  void Put(const std::string& fingerprint, relational::Table table, uint64_t epoch);
  void Put(const std::string& fingerprint, TableHandle table, uint64_t epoch);

  /// Returns a handle to the materialized table if one exists with
  /// epoch >= current_epoch - max_age; otherwise nullptr. A hit refreshes
  /// the entry's LRU position within its epoch without allocating.
  TableHandle Get(const std::string& fingerprint, uint64_t current_epoch,
                  uint64_t max_age) const;

  /// Drops everything older than the epoch horizon; returns how many
  /// entries were dropped.
  size_t EvictOlderThan(uint64_t epoch);

  /// Wires put/hit/miss/eviction counters into the engine's registry
  /// (nullptr detaches). Not thread-safe against concurrent operations;
  /// call during setup.
  void set_metrics(trace::MetricsRegistry* metrics);

  size_t size() const;
  size_t hits() const;
  size_t misses() const;
  /// Entries dropped (eviction horizon or byte budget) over the warehouse's
  /// lifetime.
  size_t evicted_entries() const;
  /// Current total ApproxBytes of all cached tables.
  size_t bytes() const;
  size_t max_bytes() const { return max_bytes_per_shard_ * kShards; }

  /// One materialized entry, as snapshotted for the durability layer.
  struct SnapshotEntry {
    std::string fingerprint;
    uint64_t epoch = 0;
    TableHandle table;
  };

  /// Handles to the current materializations (fingerprint order), for
  /// persistence snapshots. Zero-copy: each shard is locked only long
  /// enough to copy its fingerprints and handles.
  std::vector<SnapshotEntry> SnapshotEntries() const;

 private:
  struct Entry {
    TableHandle table;
    uint64_t epoch = 0;
    size_t bytes = 0;
    uint64_t tick = 0;  ///< LRU sequence within the shard
  };
  /// Eviction order is epoch-major: (epoch, tick) sorts oldest epoch first
  /// and least-recently-used within an epoch.
  using EvictionKey = std::pair<uint64_t, uint64_t>;
  struct Shard {
    mutable Mutex mu;
    std::map<std::string, Entry> entries GUARDED_BY(mu);
    std::map<EvictionKey, std::string> eviction_order GUARDED_BY(mu);
    size_t bytes GUARDED_BY(mu) = 0;
    uint64_t tick GUARDED_BY(mu) = 0;
    size_t hits GUARDED_BY(mu) = 0;
    size_t misses GUARDED_BY(mu) = 0;
    size_t evicted GUARDED_BY(mu) = 0;
  };

  Shard& ShardFor(const std::string& fingerprint) const {
    return shards_[std::hash<std::string>{}(fingerprint) & (kShards - 1)];
  }

  /// Removes one entry (caller holds the shard lock). Returns its bytes.
  size_t RemoveLocked(Shard& shard, std::map<std::string, Entry>::iterator it)
      REQUIRES(shard.mu);

  /// Evicts until the shard fits its byte slice (caller holds the lock).
  void EnforceBudgetLocked(Shard& shard) REQUIRES(shard.mu);

  size_t max_bytes_per_shard_ = 0;  ///< 0 = unbounded
  mutable std::vector<Shard> shards_ = std::vector<Shard>(kShards);

  /// Cached registry cells (see MetricsRegistry::RegisterCounter); null when
  /// detached. Written only by set_metrics, before concurrent use.
  trace::MetricsRegistry::Counter* c_puts_ = nullptr;
  trace::MetricsRegistry::Counter* c_hits_ = nullptr;
  trace::MetricsRegistry::Counter* c_misses_ = nullptr;
  trace::MetricsRegistry::Counter* c_evictions_ = nullptr;
  trace::MetricsRegistry::Counter* c_evicted_entries_ = nullptr;
  trace::MetricsRegistry::Counter* c_bytes_evicted_ = nullptr;
  trace::MetricsRegistry::Counter* c_stale_put_drops_ = nullptr;
};

}  // namespace mediator
}  // namespace piye

#endif  // PIYE_MEDIATOR_WAREHOUSE_H_
