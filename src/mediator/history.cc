#include "mediator/history.h"

#include <algorithm>
#include <utility>

#include "common/macros.h"

namespace piye {
namespace mediator {

QueryHistory::QueryHistory(Options options)
    : max_resident_entries_(options.max_resident_entries) {}

QueryHistory::Shard& QueryHistory::ShardFor(const std::string& requester) const {
  static_assert((kShards & (kShards - 1)) == 0, "kShards must be a power of two");
  return shards_[std::hash<std::string>{}(requester) & (kShards - 1)];
}

size_t QueryHistory::Record(HistoryEntry entry) {
  const std::string requester = entry.requester;
  const double loss = entry.aggregated_privacy_loss;
  const bool released = entry.released;
  uint64_t seq = 0;
  {
    MutexLock lock(entries_mu_);
    entry.sequence_number = next_sequence_++;
    seq = entry.sequence_number;
    entries_.push_back(std::move(entry));
    if (max_resident_entries_ > 0 && entries_.size() > max_resident_entries_) {
      entries_.pop_front();
    }
  }
  if (released) {
    Shard& shard = ShardFor(requester);
    MutexLock lock(shard.mu);
    RequesterState& st = shard.state[requester];
    st.loss += loss;
    st.dirty = true;
    st.last_touch = Touch();
  }
  return seq;
}

size_t QueryHistory::size() const {
  MutexLock lock(entries_mu_);
  return next_sequence_;
}

size_t QueryHistory::resident_entries() const {
  MutexLock lock(entries_mu_);
  return entries_.size();
}

size_t QueryHistory::resident_requesters() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    MutexLock lock(shard.mu);
    total += shard.state.size();
  }
  return total;
}

std::vector<HistoryEntry> QueryHistory::Snapshot() const {
  MutexLock lock(entries_mu_);
  return std::vector<HistoryEntry>(entries_.begin(), entries_.end());
}

double QueryHistory::CumulativeLoss(const std::string& requester) const {
  const Shard& shard = ShardFor(requester);
  MutexLock lock(shard.mu);
  auto it = shard.state.find(requester);
  return it == shard.state.end() ? 0.0 : it->second.loss;
}

Result<double> QueryHistory::DurableCumulativeLoss(const std::string& requester) {
  {
    Shard& shard = ShardFor(requester);
    MutexLock lock(shard.mu);
    auto it = shard.state.find(requester);
    if (it != shard.state.end()) {
      it->second.last_touch = Touch();
      return it->second.loss;
    }
  }
  // Not resident: consult the durable floor store. The provider is called
  // with no shard lock held — it does file I/O.
  FloorProvider provider;
  {
    MutexLock lock(provider_mu_);
    provider = provider_;
  }
  if (!provider) {
    // Volatile engine: nothing is ever spilled, so absent means fresh.
    return 0.0;
  }
  PIYE_ASSIGN_OR_RETURN(std::optional<double> floor, provider(requester));
  Shard& shard = ShardFor(requester);
  MutexLock lock(shard.mu);
  // A concurrent Record/fault-in may have raced us here; max-merge so the
  // floor can only raise the budget, never reset it.
  RequesterState& st = shard.state[requester];
  if (floor.has_value()) {
    faulted_in_total_.fetch_add(1);
    st.loss = std::max(st.loss, *floor);
  }
  // A pure fault-in stays clean: the resident value equals (or is below,
  // never above) what the durable index already holds only when dirtied by
  // a concurrent Record, which set the bit itself.
  st.last_touch = Touch();
  return st.loss;
}

std::map<std::string, double> QueryHistory::CumulativeLosses() const {
  std::map<std::string, double> out;
  for (const Shard& shard : shards_) {
    MutexLock lock(shard.mu);
    for (const auto& [requester, st] : shard.state) out[requester] = st.loss;
  }
  return out;
}

std::map<std::string, double> QueryHistory::DirtyFloors() const {
  std::map<std::string, double> out;
  for (const Shard& shard : shards_) {
    MutexLock lock(shard.mu);
    for (const auto& [requester, st] : shard.state) {
      if (st.dirty) out[requester] = st.loss;
    }
  }
  return out;
}

void QueryHistory::MarkClean(const std::map<std::string, double>& persisted) {
  for (const auto& [requester, floor] : persisted) {
    Shard& shard = ShardFor(requester);
    MutexLock lock(shard.mu);
    auto it = shard.state.find(requester);
    if (it == shard.state.end()) continue;
    // Only clean if the durable floor covers the resident loss; a Record
    // that raced in since the DirtyFloors capture keeps the entry dirty so
    // the next rotation persists it and the spiller cannot evict it.
    if (it->second.loss <= floor) it->second.dirty = false;
  }
}

size_t QueryHistory::SpillColdest(size_t max_resident) {
  if (max_resident == 0) return 0;
  // Pass 1: collect (touch, shard, name) for every clean resident entry.
  struct Candidate {
    uint64_t touch;
    size_t shard;
    std::string requester;
  };
  std::vector<Candidate> candidates;
  size_t resident = 0;
  for (size_t s = 0; s < shards_.size(); ++s) {
    MutexLock lock(shards_[s].mu);
    resident += shards_[s].state.size();
    for (const auto& [requester, st] : shards_[s].state) {
      if (!st.dirty) candidates.push_back({st.last_touch, s, requester});
    }
  }
  if (resident <= max_resident) return 0;
  size_t excess = resident - max_resident;
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.touch < b.touch;
            });
  // Pass 2: evict coldest-first, revalidating under the shard lock — an
  // entry touched or dirtied since pass 1 stays resident.
  size_t evicted = 0;
  for (const Candidate& c : candidates) {
    if (evicted >= excess) break;
    MutexLock lock(shards_[c.shard].mu);
    auto it = shards_[c.shard].state.find(c.requester);
    if (it == shards_[c.shard].state.end()) continue;
    if (it->second.dirty || it->second.last_touch != c.touch) continue;
    shards_[c.shard].state.erase(it);
    ++evicted;
  }
  spilled_total_.fetch_add(evicted);
  return evicted;
}

void QueryHistory::set_floor_provider(FloorProvider provider) {
  MutexLock lock(provider_mu_);
  provider_ = std::move(provider);
}

Status QueryHistory::Restore(std::vector<HistoryEntry> entries,
                             const std::map<std::string, double>& floors,
                             uint64_t total_entries) {
  // Recompute per-requester losses from the entries before they move into
  // the ring, then raise to the floors. Everything restored is marked
  // dirty: the recovery fold-in snapshot re-merges these floors durably,
  // after which they are clean and spillable again.
  uint64_t next = total_entries;
  std::map<std::string, double> recomputed;
  for (const auto& e : entries) {
    next = std::max<uint64_t>(next, e.sequence_number + 1);
    if (e.released) recomputed[e.requester] += e.aggregated_privacy_loss;
  }
  {
    MutexLock lock(entries_mu_);
    if (next_sequence_ != 0 || !entries_.empty()) {
      return Status::InvalidArgument(
          "QueryHistory::Restore requires an empty history");
    }
    for (auto& e : entries) entries_.push_back(std::move(e));
    while (max_resident_entries_ > 0 &&
           entries_.size() > max_resident_entries_) {
      entries_.pop_front();
    }
    next_sequence_ = next;
  }
  for (const auto& [requester, loss] : recomputed) {
    Shard& shard = ShardFor(requester);
    MutexLock lock(shard.mu);
    RequesterState& st = shard.state[requester];
    st.loss += loss;
    st.dirty = true;
    st.last_touch = Touch();
  }
  for (const auto& [requester, floor] : floors) {
    Shard& shard = ShardFor(requester);
    MutexLock lock(shard.mu);
    RequesterState& st = shard.state[requester];
    st.loss = std::max(st.loss, floor);
    st.dirty = true;
    st.last_touch = Touch();
  }
  return Status::OK();
}

std::vector<HistoryEntry> QueryHistory::ForRequester(
    const std::string& requester) const {
  MutexLock lock(entries_mu_);
  std::vector<HistoryEntry> out;
  for (const auto& e : entries_) {
    if (e.requester == requester) out.push_back(e);
  }
  return out;
}

}  // namespace mediator
}  // namespace piye
