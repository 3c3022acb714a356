#ifndef PIYE_MEDIATOR_HISTORY_H_
#define PIYE_MEDIATOR_HISTORY_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/sync.h"

namespace piye {
namespace mediator {

/// One entry of the mediation engine's query history (the "History" store of
/// Figure 2(b)). The history is what makes sequence-level privacy control
/// possible: cumulative per-requester losses are tracked across queries.
struct HistoryEntry {
  size_t sequence_number = 0;
  std::string requester;
  std::string purpose;
  /// The engine's warehouse key for the query: its PiqlQuery::CanonicalKey
  /// followed by the resolved dedup keys and the quorum.
  std::string query_key;
  std::vector<std::string> sources_answered;
  std::vector<std::string> sources_refused;
  double aggregated_privacy_loss = 0.0;
  bool released = false;  ///< false when privacy control suppressed the result
};

/// Bounded-memory query history with sharded per-requester budget floors and
/// cold-requester spill.
///
/// Two stores, separately locked:
///
///  - A bounded ring of recent `HistoryEntry` records (`max_resident_entries`)
///    for audit/inspection. Sequence numbers keep counting past the ring —
///    `size()` is the *total logical* entry count, not the resident count.
///  - Per-requester budget state (cumulative loss floor, dirty bit, LRU
///    touch) in `kShards` hash shards, each with its own `piye::Mutex` —
///    the same placement scheme as the sharded warehouse.
///
/// Memory holds only the hot set: after each snapshot rotation the engine
/// calls `MarkClean` + `SpillColdest`, evicting cold *clean* requesters
/// whose floors are durable in the StateLog's floor index. A spilled
/// requester's first returning query calls `DurableCumulativeLoss`, which
/// faults the floor back in through the installed `FloorProvider` before any
/// budget decision is made — and a provider failure propagates as an error
/// the engine turns into a refusal (fail closed, never default-allow).
///
/// All accessors are safe against concurrent `MediationEngine::Execute`
/// calls: readers get locked copies.
class QueryHistory {
 public:
  struct Options {
    size_t max_resident_entries = 4096; ///< entry-ring bound; 0 = unbounded
  };

  /// Budget-state shards (a power of two, so a hash masks onto one).
  static constexpr size_t kShards = 16;

  /// Loads the durable budget floor for a requester that is not resident.
  /// Returns nullopt when the requester has never been spilled; an error
  /// Status when the durable store cannot answer (callers refuse).
  using FloorProvider =
      std::function<Result<std::optional<double>>(const std::string&)>;

  QueryHistory() : QueryHistory(Options{}) {}
  explicit QueryHistory(Options options);

  /// Appends and returns the assigned sequence number.
  size_t Record(HistoryEntry entry);

  /// Total logical entries ever recorded (recovered counts included), not
  /// the resident-ring size — sequence numbers and the "how many queries has
  /// this mediator answered" invariant survive compaction.
  size_t size() const;

  /// Test hook: entries still resident in the bounded ring.
  size_t resident_entries() const;

  /// Requesters with resident budget state (the hot set).
  size_t resident_requesters() const;

  /// Requesters evicted by SpillColdest over this process's lifetime.
  uint64_t spilled_total() const { return spilled_total_.load(); }

  /// Floors faulted back in from the durable store over this lifetime.
  uint64_t faulted_in_total() const { return faulted_in_total_.load(); }

  /// Copy of the resident entry ring, taken under the lock.
  std::vector<HistoryEntry> Snapshot() const;

  /// Resident-only cumulative loss: 0.0 for a requester with no resident
  /// state, *even if a spilled floor exists*. Budget decisions must use
  /// `DurableCumulativeLoss`; this accessor is a test hook, exact for
  /// volatile (no-persistence) engines, where everything is resident.
  double CumulativeLoss(const std::string& requester) const;

  /// The budget-decision accessor: the requester's cumulative loss, faulting
  /// its durable floor in through the FloorProvider if it is not resident.
  /// A provider failure is returned as-is — the caller must refuse the
  /// query, not treat the requester as fresh.
  Result<double> DurableCumulativeLoss(const std::string& requester);

  /// Test hook: entries issued by one requester, from the resident ring
  /// (copies).
  std::vector<HistoryEntry> ForRequester(const std::string& requester) const;

  /// Copy of every resident requester's cumulative loss (snapshotting).
  std::map<std::string, double> CumulativeLosses() const;

  /// Floors modified since they were last marked clean — the incremental
  /// part of a snapshot rotation.
  std::map<std::string, double> DirtyFloors() const;

  /// Marks clean exactly the floors covered by `persisted` (the map a prior
  /// DirtyFloors call returned, now durable). A requester whose resident
  /// loss has grown past its persisted floor stays dirty — a Record that
  /// lands between the DirtyFloors capture and this call must survive into
  /// the next rotation, or a subsequent spill would quietly hand budget
  /// back through the stale durable floor.
  void MarkClean(const std::map<std::string, double>& persisted);

  /// Evicts the coldest *clean* resident requesters until at most
  /// `max_resident` remain; returns how many were evicted. Dirty floors are
  /// never spilled — their budget is not yet durable. 0 disables spill.
  size_t SpillColdest(size_t max_resident);

  void set_floor_provider(FloorProvider provider);

  /// Recovery: replaces the log with `entries` (in order, keeping their
  /// sequence numbers) and recomputes cumulative losses, then raises each
  /// requester's cumulative loss to at least its `floors` value. The floor
  /// is the fail-closed invariant of recovery — a requester's budget
  /// consumption is never reconstructed below the last durably recorded
  /// value, even if the entries that produced it were lost with a damaged
  /// log tail. `total_entries` restores the logical size() across
  /// compactions that dropped old entries. Every restored floor is marked
  /// dirty so the recovery fold-in snapshot re-merges it durably. Requires
  /// an empty history (a freshly built engine).
  Status Restore(std::vector<HistoryEntry> entries,
                 const std::map<std::string, double>& floors,
                 uint64_t total_entries = 0);

 private:
  struct RequesterState {
    double loss = 0.0;
    bool dirty = false;       ///< floor changed since last durable merge
    uint64_t last_touch = 0;  ///< global LRU clock value
  };
  struct Shard {
    mutable Mutex mu;
    std::map<std::string, RequesterState> state GUARDED_BY(mu);
  };

  Shard& ShardFor(const std::string& requester) const;
  uint64_t Touch() { return touch_clock_.fetch_add(1) + 1; }

  size_t max_resident_entries_ = 0;
  mutable std::array<Shard, kShards> shards_;

  mutable Mutex entries_mu_;
  std::deque<HistoryEntry> entries_ GUARDED_BY(entries_mu_);
  uint64_t next_sequence_ GUARDED_BY(entries_mu_) = 0;

  mutable Mutex provider_mu_;
  FloorProvider provider_ GUARDED_BY(provider_mu_);

  std::atomic<uint64_t> touch_clock_{0};
  std::atomic<uint64_t> spilled_total_{0};
  std::atomic<uint64_t> faulted_in_total_{0};
};

}  // namespace mediator
}  // namespace piye

#endif  // PIYE_MEDIATOR_HISTORY_H_
