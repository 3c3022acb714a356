#include "mediator/warehouse.h"

#include <algorithm>

namespace piye {
namespace mediator {

Warehouse::Warehouse(const Options& options)
    : max_bytes_per_shard_(options.max_bytes == 0
                               ? 0
                               : std::max<size_t>(1, options.max_bytes / kShards)) {}

void Warehouse::set_metrics(trace::MetricsRegistry* metrics) {
  if (metrics == nullptr) {
    c_puts_ = c_hits_ = c_misses_ = c_evictions_ = c_evicted_entries_ =
        c_bytes_evicted_ = c_stale_put_drops_ = nullptr;
    return;
  }
  c_puts_ = metrics->RegisterCounter("warehouse.puts");
  c_hits_ = metrics->RegisterCounter("warehouse.hits");
  c_misses_ = metrics->RegisterCounter("warehouse.misses");
  c_evictions_ = metrics->RegisterCounter("warehouse.evictions");
  c_evicted_entries_ = metrics->RegisterCounter("warehouse.evicted_entries");
  c_bytes_evicted_ = metrics->RegisterCounter("warehouse.bytes_evicted");
  c_stale_put_drops_ = metrics->RegisterCounter("warehouse.stale_put_drops");
}

size_t Warehouse::RemoveLocked(Shard& shard,
                               std::map<std::string, Entry>::iterator it) {
  const size_t freed = it->second.bytes;
  shard.bytes -= freed;
  shard.eviction_order.erase({it->second.epoch, it->second.indexed_tick});
  shard.entries.erase(it);
  return freed;
}

void Warehouse::EnforceBudgetLocked(Shard& shard) {
  if (max_bytes_per_shard_ == 0) return;
  size_t bytes_evicted = 0;
  size_t entries_evicted = 0;
  while (shard.bytes > max_bytes_per_shard_ && !shard.eviction_order.empty()) {
    auto front = shard.eviction_order.begin();
    auto victim = shard.entries.find(front->second);
    Entry& entry = victim->second;
    if (entry.indexed_tick != entry.tick) {
      // Hit since it was indexed: move the node to its live key (in place,
      // no allocation) and look at the new front.
      auto node = shard.eviction_order.extract(front);
      node.key().second = entry.indexed_tick = entry.tick;
      shard.eviction_order.insert(std::move(node));
      continue;
    }
    bytes_evicted += RemoveLocked(shard, victim);
    ++entries_evicted;
  }
  if (entries_evicted > 0) {
    shard.evicted += entries_evicted;
    trace::Bump(c_evictions_);
    trace::Bump(c_evicted_entries_, entries_evicted);
    trace::Bump(c_bytes_evicted_, bytes_evicted);
  }
}

void Warehouse::Put(const std::string& fingerprint, TableHandle table,
                    uint64_t epoch) {
  if (table == nullptr) return;
  const size_t entry_bytes = table->ApproxBytes();
  Shard& shard = ShardFor(fingerprint);
  MutexLock lock(shard.mu);
  auto it = shard.entries.find(fingerprint);
  if (it != shard.entries.end()) {
    if (it->second.epoch > epoch) {
      // A replayed (or otherwise stale) put must not roll the
      // materialization back to an older epoch.
      trace::Bump(c_stale_put_drops_);
      return;
    }
    RemoveLocked(shard, it);
  }
  const uint64_t tick = ++shard.tick;
  shard.entries.emplace(fingerprint,
                        Entry{std::move(table), epoch, entry_bytes, tick, tick});
  shard.eviction_order.emplace(EvictionKey{epoch, tick}, fingerprint);
  shard.bytes += entry_bytes;
  trace::Bump(c_puts_);
  EnforceBudgetLocked(shard);
}

Warehouse::TableHandle Warehouse::Get(const std::string& fingerprint,
                                      uint64_t current_epoch,
                                      uint64_t max_age) const {
  Shard& shard = ShardFor(fingerprint);
  MutexLock lock(shard.mu);
  auto it = shard.entries.find(fingerprint);
  if (it == shard.entries.end()) {
    ++shard.misses;
    trace::Bump(c_misses_);
    return nullptr;
  }
  Entry& entry = it->second;
  const uint64_t age =
      current_epoch >= entry.epoch ? current_epoch - entry.epoch : 0;
  if (age > max_age) {
    ++shard.misses;
    trace::Bump(c_misses_);
    return nullptr;
  }
  // Refresh the LRU position within the entry's epoch. The index node keeps
  // its old key until eviction reaches it (see Shard).
  entry.tick = ++shard.tick;
  ++shard.hits;
  trace::Bump(c_hits_);
  return entry.table;
}

size_t Warehouse::EvictOlderThan(uint64_t epoch) {
  size_t evicted = 0;
  size_t bytes_evicted = 0;
  for (Shard& shard : shards_) {
    MutexLock lock(shard.mu);
    // The eviction index is epoch-major, so everything older than the
    // horizon is the prefix below (epoch, 0).
    while (!shard.eviction_order.empty() &&
           shard.eviction_order.begin()->first.first < epoch) {
      auto victim = shard.entries.find(shard.eviction_order.begin()->second);
      bytes_evicted += RemoveLocked(shard, victim);
      ++shard.evicted;
      ++evicted;
    }
  }
  trace::Bump(c_evictions_);
  trace::Bump(c_evicted_entries_, evicted);
  if (bytes_evicted > 0) trace::Bump(c_bytes_evicted_, bytes_evicted);
  return evicted;
}

size_t Warehouse::size() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    MutexLock lock(shard.mu);
    total += shard.entries.size();
  }
  return total;
}

size_t Warehouse::hits() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    MutexLock lock(shard.mu);
    total += shard.hits;
  }
  return total;
}

size_t Warehouse::misses() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    MutexLock lock(shard.mu);
    total += shard.misses;
  }
  return total;
}

size_t Warehouse::evicted_entries() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    MutexLock lock(shard.mu);
    total += shard.evicted;
  }
  return total;
}

size_t Warehouse::bytes() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    MutexLock lock(shard.mu);
    total += shard.bytes;
  }
  return total;
}

std::vector<Warehouse::SnapshotEntry> Warehouse::SnapshotEntries() const {
  std::vector<SnapshotEntry> out;
  for (const Shard& shard : shards_) {
    MutexLock lock(shard.mu);
    out.reserve(out.size() + shard.entries.size());
    for (const auto& [fingerprint, entry] : shard.entries) {
      out.push_back({fingerprint, entry.epoch, entry.table});
    }
  }
  // Shards are hash-partitioned; restore global fingerprint order so the
  // snapshot encoding stays deterministic.
  std::sort(out.begin(), out.end(),
            [](const SnapshotEntry& a, const SnapshotEntry& b) {
              return a.fingerprint < b.fingerprint;
            });
  return out;
}

}  // namespace mediator
}  // namespace piye
