#include "mediator/admission.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

namespace piye {
namespace mediator {

namespace {

/// Explicit RequestCancel is detected by polling at this granularity while a
/// waiter is queued (its deadline, by contrast, is honoured exactly via
/// wait_until). Admission wakes from a freed slot are cv-notified and
/// therefore immediate.
constexpr std::chrono::milliseconds kCancelPoll{2};

/// Every this-many admissions through a bucket shard, fully-refilled buckets
/// are swept. A full bucket is indistinguishable from a fresh one, so the
/// sweep never changes an admission decision — it only bounds memory.
constexpr uint64_t kBucketSweepInterval = 256;

/// Every this-many pushes/pops, the fair-share queue drops idle entries whose
/// pass-debt the virtual clock has absorbed.
constexpr uint64_t kQueueSweepInterval = 64;

}  // namespace

// --- TokenBucket ---

TokenBucket::TokenBucket(double tokens_per_second, double burst)
    : rate_(std::max(0.0, tokens_per_second)),
      burst_(burst > 0.0 ? burst : std::max(1.0, rate_)),
      tokens_(burst_) {}

void TokenBucket::RefillLocked(TimePoint now) const {
  if (!primed_) {
    primed_ = true;
    last_refill_ = now;
    return;
  }
  if (now <= last_refill_) return;  // steady_clock, but stay defensive
  const double elapsed =
      std::chrono::duration_cast<std::chrono::duration<double>>(now - last_refill_)
          .count();
  tokens_ = std::min(burst_, tokens_ + elapsed * rate_);
  last_refill_ = now;
}

bool TokenBucket::TryConsume(TimePoint now) {
  RefillLocked(now);
  if (tokens_ < 1.0) return false;
  tokens_ -= 1.0;
  return true;
}

uint64_t TokenBucket::RetryAfterMillis(TimePoint now) const {
  RefillLocked(now);
  if (tokens_ >= 1.0) return 0;
  if (rate_ <= 0.0) return 1000;  // rate off ⇒ nothing ever refills; guess
  const double seconds = (1.0 - tokens_) / rate_;
  return static_cast<uint64_t>(std::ceil(seconds * 1000.0));
}

double TokenBucket::tokens(TimePoint now) const {
  RefillLocked(now);
  return tokens_;
}

bool TokenBucket::FullyRefilled(TimePoint now) const {
  RefillLocked(now);
  return tokens_ >= burst_;
}

// --- FairShareQueue ---

void FairShareQueue::SetWeight(const std::string& requester, double weight) {
  const double clamped = std::max(1e-6, weight);
  weights_[requester] = clamped;
  auto it = requesters_.find(requester);
  if (it != requesters_.end()) it->second.weight = clamped;
}

void FairShareQueue::SweepIdle() {
  if (++ops_ % kQueueSweepInterval != 0) return;
  for (auto it = requesters_.begin(); it != requesters_.end();) {
    // Evictable: no waiters, and no pass-debt ahead of the virtual clock. A
    // re-push would clamp pass up to virtual_time_ anyway, so recreating the
    // entry later lands it in exactly this state.
    if (it->second.waiters.empty() && it->second.pass <= virtual_time_) {
      it = requesters_.erase(it);
    } else {
      ++it;
    }
  }
}

bool FairShareQueue::Push(uint64_t id, const std::string& requester,
                          TimePoint deadline) {
  if (size_ >= max_depth_) return false;  // LIFO shed: the newcomer loses
  auto [entry, inserted] = requesters_.try_emplace(requester);
  PerRequester& r = entry->second;
  if (inserted) {
    auto w = weights_.find(requester);
    if (w != weights_.end()) r.weight = w->second;
  }
  if (r.waiters.empty()) {
    // idle → active: no banked credit from the idle period.
    r.pass = std::max(r.pass, virtual_time_);
  }
  Waiter w;
  w.id = id;
  w.deadline = deadline;
  w.seq = next_seq_++;
  // Insert keeping (deadline, seq) order — earliest deadline served first.
  auto it = std::upper_bound(r.waiters.begin(), r.waiters.end(), w,
                             [](const Waiter& a, const Waiter& b) {
                               if (a.deadline != b.deadline)
                                 return a.deadline < b.deadline;
                               return a.seq < b.seq;
                             });
  r.waiters.insert(it, w);
  ++size_;
  SweepIdle();
  return true;
}

bool FairShareQueue::Pop(uint64_t* id) {
  if (size_ == 0) return false;
  std::map<std::string, PerRequester>::iterator best = requesters_.end();
  for (auto it = requesters_.begin(); it != requesters_.end(); ++it) {
    if (it->second.waiters.empty()) continue;
    if (best == requesters_.end() || it->second.pass < best->second.pass) {
      best = it;  // map order makes the tie-break lexicographic: total order
    }
  }
  PerRequester& r = best->second;
  virtual_time_ = r.pass;
  r.pass += 1.0 / r.weight;
  *id = r.waiters.front().id;
  r.waiters.pop_front();
  --size_;
  // The just-served requester keeps pass > virtual_time_, so the sweep
  // cannot drop its banked debt.
  SweepIdle();
  return true;
}

bool FairShareQueue::Remove(uint64_t id) {
  for (auto& [name, r] : requesters_) {
    for (auto it = r.waiters.begin(); it != r.waiters.end(); ++it) {
      if (it->id == id) {
        r.waiters.erase(it);
        --size_;
        return true;
      }
    }
  }
  return false;
}

// --- AdmissionController ---

AdmissionController::AdmissionController(AdmissionConfig config,
                                         trace::MetricsRegistry* metrics)
    : config_(std::move(config)),
      c_admitted_(metrics->RegisterCounter("engine.admitted")),
      c_shed_(metrics->RegisterCounter("engine.shed")),
      c_cancelled_(metrics->RegisterCounter("engine.cancelled")),
      c_queued_(metrics->RegisterCounter("engine.queued")),
      admission_wait_(metrics->RegisterLatency("engine.admission_wait")),
      bucket_shards_(std::bit_ceil(config_.bucket_shards)),
      queue_(config_.max_queue_depth) {
  bucket_shard_mask_ = bucket_shards_.size() - 1;
  for (const auto& [requester, weight] : config_.requester_weights) {
    queue_.SetWeight(requester, weight);
  }
}

AdmissionController::BucketShard& AdmissionController::BucketShardFor(
    const std::string& requester) const {
  return bucket_shards_[std::hash<std::string>{}(requester) &
                        bucket_shard_mask_];
}

size_t AdmissionController::inflight() const {
  if (config_.max_inflight != 0) {
    MutexLock lock(mu_);
    return inflight_;
  }
  size_t released = 0;
  for (const GaugeSlot& slot : gauge_) {
    released += slot.released.load(std::memory_order_acquire);
  }
  size_t admitted = 0;
  for (const GaugeSlot& slot : gauge_) {
    admitted += slot.admitted.load(std::memory_order_relaxed);
  }
  return admitted - released;
}

size_t AdmissionController::queue_depth() const {
  MutexLock lock(mu_);
  return queue_.size();
}

size_t AdmissionController::tracked_buckets() const {
  size_t total = 0;
  for (const BucketShard& shard : bucket_shards_) {
    MutexLock lock(shard.mu);
    total += shard.buckets.size();
  }
  return total;
}

size_t AdmissionController::tracked_requesters() const {
  MutexLock lock(mu_);
  return queue_.tracked_requesters();
}

void AdmissionController::Permit::Release() {
  if (controller_ == nullptr) return;
  controller_->Release();
  controller_ = nullptr;
}

void AdmissionController::Release() {
  if (config_.max_inflight == 0) {
    gauge_[trace::ThreadSlot()].released.fetch_add(1, std::memory_order_release);
    return;
  }
  MutexLock lock(mu_);
  uint64_t id = 0;
  if (queue_.Pop(&id)) {
    // The slot transfers to the fair-share winner; inflight_ is unchanged.
    admitted_[id] = true;
    cv_.NotifyAll();
  } else {
    --inflight_;
  }
}

Result<AdmissionController::Permit> AdmissionController::Admit(
    const std::string& requester, const CancelToken& token) {
  {
    // A deadline that has already passed is rejected here, before the query
    // touches the bucket, the queue, or anything downstream.
    Status live = token.Check();
    if (!live.ok()) {
      trace::Bump(c_cancelled_);
      return live;
    }
  }
  const auto now = std::chrono::steady_clock::now();

  if (config_.tokens_per_second > 0.0) {
    // Rate check under the shard lock only — the hot rejection path for an
    // abusive requester never touches the main admission mutex.
    BucketShard& shard = BucketShardFor(requester);
    MutexLock shard_lock(shard.mu);
    auto it = shard.buckets
                  .try_emplace(requester, config_.tokens_per_second,
                               config_.bucket_burst)
                  .first;
    const bool consumed = it->second.TryConsume(now);
    const uint64_t retry_ms = consumed ? 0 : it->second.RetryAfterMillis(now);
    if (++shard.ops % kBucketSweepInterval == 0) {
      for (auto b = shard.buckets.begin(); b != shard.buckets.end();) {
        // Keep the bucket just charged; evict any bucket back at full burst
        // (decision-identical to the fresh bucket a returning requester
        // would get).
        if (b != it && b->second.FullyRefilled(now)) {
          b = shard.buckets.erase(b);
        } else {
          ++b;
        }
      }
    }
    if (!consumed) {
      trace::Bump(c_shed_);
      return Status::ResourceExhausted(
          "admission: requester '" + requester +
          "' exceeded its rate limit; retry after ~" +
          std::to_string(retry_ms) + " ms");
    }
  }

  if (config_.max_inflight == 0) {
    gauge_[trace::ThreadSlot()].admitted.fetch_add(1, std::memory_order_relaxed);
    trace::Bump(c_admitted_);
    return Permit(this);
  }

  MutexLock lock(mu_);
  if (inflight_ < config_.max_inflight &&
      queue_.empty()) {
    ++inflight_;
    trace::Bump(c_admitted_);
    return Permit(this);
  }

  const uint64_t id = next_waiter_id_++;
  if (!queue_.Push(id, requester, token.deadline())) {
    trace::Bump(c_shed_);
    // Retry-after heuristic: every queued waiter ahead plus this one needs a
    // slot; with no service-time model, a millisecond per waiter is a usable
    // lower bound for a backoff hint.
    return Status::ResourceExhausted(
        "admission queue saturated (" + std::to_string(queue_.size()) +
        " waiting, " + std::to_string(inflight_) +
        " in flight); retry after ~" + std::to_string(queue_.size() + 1) + " ms");
  }
  trace::Bump(c_queued_);
  const auto wait_start = now;

  for (;;) {
    auto wake = std::chrono::steady_clock::now() + kCancelPoll;
    if (token.has_deadline()) wake = std::min(wake, token.deadline());
    cv_.WaitUntil(lock, wake);  // poll tick: timeout and wakeup both recheck
    if (auto it = admitted_.find(id); it != admitted_.end()) {
      admitted_.erase(it);
      trace::Bump(c_admitted_);
      admission_wait_->Record(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - wait_start)
              .count());
      return Permit(this);
    }
    if (token.cancelled()) {
      if (!queue_.Remove(id)) {
        // Raced with Release: the slot was already transferred to us. Hand
        // it straight on — this query is abandoning it.
        admitted_.erase(id);
        uint64_t next = 0;
        if (queue_.Pop(&next)) {
          admitted_[next] = true;
          cv_.NotifyAll();
        } else {
          --inflight_;
        }
      }
      trace::Bump(c_cancelled_);
      return token.status();
    }
  }
}

}  // namespace mediator
}  // namespace piye
