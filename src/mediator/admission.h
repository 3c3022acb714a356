#ifndef PIYE_MEDIATOR_ADMISSION_H_
#define PIYE_MEDIATOR_ADMISSION_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "common/sync.h"
#include "common/result.h"
#include "common/trace.h"

namespace piye {
namespace mediator {

/// Overload-resilience tuning for the mediation engine's admission pipeline
/// (see DESIGN.md §8). The defaults are fully permissive — an engine built
/// with a default config admits everything immediately, which is the
/// pre-admission behaviour every existing caller relies on. Deployments
/// facing real load set `max_inflight` (capacity protection) and
/// `tokens_per_second` (per-requester rate fairness).
struct AdmissionConfig {
  /// Queries allowed to execute concurrently. Arrivals beyond this wait in
  /// the fair-share queue. 0 ⇒ unbounded (gating off, the default).
  size_t max_inflight = 0;

  /// Waiters held beyond `max_inflight` before the controller starts
  /// shedding. Saturation sheds the *newest* arrival (LIFO shed): under a
  /// burst, the queries already waiting are the ones closest to being
  /// served, so rejecting newcomers keeps goodput instead of churning the
  /// whole queue past its deadlines.
  size_t max_queue_depth = 128;

  /// Per-requester token-bucket rate limit, refilled continuously. A
  /// requester that outruns its bucket is shed immediately with
  /// `kResourceExhausted` and a retry-after hint — one snooping HMO cannot
  /// starve everyone else of admission slots. 0 ⇒ rate limiting off.
  double tokens_per_second = 0.0;

  /// Bucket capacity (burst tolerance). <= 0 ⇒ max(1, tokens_per_second).
  double bucket_burst = 0.0;

  /// Token-bucket shard count (rounded up to a power of two). Buckets are
  /// checked before the main admission lock, so a million rate-limited
  /// requesters contend on shards, not on one mutex. Full buckets are
  /// swept periodically — a fully-refilled bucket is decision-identical to
  /// a fresh one, so eviction never changes an admission outcome.
  size_t bucket_shards = 8;

  /// Fair-share weights by requester name; absent requesters weigh 1.0. A
  /// weight-2 requester is served twice as often from the queue as a
  /// weight-1 requester when both have waiters.
  std::map<std::string, double> requester_weights;
};

/// Continuous-refill token bucket. Not thread-safe on its own (the
/// controller locks); time is always passed in, so tests drive it with a
/// synthetic clock and get bit-for-bit deterministic behaviour.
class TokenBucket {
 public:
  using TimePoint = std::chrono::steady_clock::time_point;

  TokenBucket(double tokens_per_second, double burst);

  /// Refills for the elapsed time, then takes one token if available.
  bool TryConsume(TimePoint now);

  /// Milliseconds until a full token will have accrued (0 when one is
  /// already available) — the retry-after hint for shed queries.
  uint64_t RetryAfterMillis(TimePoint now) const;

  /// Test hook: tokens held at `now`.
  double tokens(TimePoint now) const;

  /// True when the bucket holds its full burst again — the state a brand-new
  /// bucket starts in, which is what makes sweeping full buckets safe.
  bool FullyRefilled(TimePoint now) const;

 private:
  void RefillLocked(TimePoint now) const;

  double rate_;
  double burst_;
  mutable double tokens_;
  mutable TimePoint last_refill_;
  mutable bool primed_ = false;
};

/// The waiting room between "engine at capacity" and "shed": a bounded queue
/// that serves requesters by weighted fair share (stride scheduling over a
/// per-requester virtual pass) and, within one requester, earliest deadline
/// first. Pure data structure — single-threaded, deterministic, owned and
/// locked by AdmissionController, property-tested directly.
class FairShareQueue {
 public:
  using TimePoint = std::chrono::steady_clock::time_point;

  explicit FairShareQueue(size_t max_depth) : max_depth_(max_depth) {}

  void SetWeight(const std::string& requester, double weight);

  /// Enqueues a waiter. Returns false when the queue is saturated — the
  /// caller sheds this newest arrival (LIFO shed), never an already-queued
  /// waiter.
  bool Push(uint64_t id, const std::string& requester, TimePoint deadline);

  /// Dequeues the next waiter to admit: the active requester with the
  /// smallest virtual pass (smallest pass / tie ⇒ lexicographic requester,
  /// so the order is total and deterministic), then that requester's
  /// earliest-deadline waiter (FIFO among equal deadlines). Returns false
  /// when empty.
  bool Pop(uint64_t* id);

  /// Removes a waiter that gave up (deadline or cancellation while queued).
  /// Returns false when `id` is no longer queued (it was already popped).
  bool Remove(uint64_t id);

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Live per-requester entries (waiters or banked pass-debt). Bounded: a
  /// periodic sweep erases idle entries whose pass has been overtaken by the
  /// virtual clock — re-activation clamps to the clock anyway, so eviction
  /// is behaviour-identical.
  size_t tracked_requesters() const { return requesters_.size(); }

 private:
  struct Waiter {
    uint64_t id = 0;
    TimePoint deadline{};
    uint64_t seq = 0;  ///< arrival order, the deadline tiebreak
  };
  struct PerRequester {
    std::deque<Waiter> waiters;  ///< kept sorted by (deadline, seq)
    double pass = 0.0;           ///< virtual time consumed / weight
    double weight = 1.0;
  };

  /// Drops idle entries that carry no debt the virtual clock hasn't already
  /// absorbed. Called every kSweepInterval pushes/pops; deterministic.
  void SweepIdle();

  size_t max_depth_;
  size_t size_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t ops_ = 0;  ///< push/pop count, drives the idle sweep
  /// Virtual clock: the pass of the last served requester. A requester going
  /// idle→active restarts at this value so a long-idle requester cannot bank
  /// pass-credit and then monopolize the queue.
  double virtual_time_ = 0.0;
  std::map<std::string, PerRequester> requesters_;
  /// Configured weights, kept separately from the live entries so an idle
  /// entry can be evicted without forgetting its weight.
  std::map<std::string, double> weights_;
};

/// The engine's admission pipeline, run before *anything* else a query
/// touches (single-flight, warehouse, history, budget, breakers):
///
///   pre-expired deadline ⇒ kDeadlineExceeded   (never dispatched)
///   token bucket dry     ⇒ kResourceExhausted  (retry-after hint)
///   capacity free        ⇒ admitted            (RAII Permit)
///   queue has room       ⇒ wait (fair share, deadline-aware)
///   queue saturated      ⇒ kResourceExhausted  (LIFO shed, retry-after hint)
///
/// A shed or expired query consumes no privacy budget, writes no history,
/// and feeds no circuit breaker — it was never admitted, so no source can be
/// blamed for it. Thread-safe; metrics land in the engine registry as
/// engine.admitted / engine.shed / engine.cancelled / engine.queued through
/// cells registered at construction.
///
/// With `max_inflight == 0` (the permissive default) nothing ever queues, so
/// admission and release each add one to the calling thread's slot of a
/// per-thread-slot gauge (admitted and released counts, summed on read): no
/// mutex, no name lookup and no cache line shared with other threads. The
/// bounded path takes `mu_` as before; a controller is one or the other for
/// its whole life.
class AdmissionController {
 public:
  AdmissionController(AdmissionConfig config, trace::MetricsRegistry* metrics);

  /// RAII admission slot: destruction (or Release) frees the in-flight slot
  /// and hands it to the next fair-share waiter.
  class Permit {
   public:
    Permit() = default;
    ~Permit() { Release(); }
    Permit(Permit&& other) noexcept : controller_(other.controller_) {
      other.controller_ = nullptr;
    }
    Permit& operator=(Permit&& other) noexcept {
      if (this != &other) {
        Release();
        controller_ = other.controller_;
        other.controller_ = nullptr;
      }
      return *this;
    }
    Permit(const Permit&) = delete;
    Permit& operator=(const Permit&) = delete;

    void Release();

   private:
    friend class AdmissionController;
    explicit Permit(AdmissionController* controller) : controller_(controller) {}
    AdmissionController* controller_ = nullptr;
  };

  /// Blocks until the query is admitted, shed, or cancelled. `requester` is
  /// the transport-corrected identity (the unit of rate limiting and fair
  /// share); `token` bounds the wait — its deadline or cancellation pulls
  /// the waiter out of the queue with kDeadlineExceeded / kCancelled.
  Result<Permit> Admit(const std::string& requester, const CancelToken& token);

  size_t inflight() const;
  size_t queue_depth() const;

  /// Test hook: resident token buckets across all shards (bounded by the
  /// sweep).
  size_t tracked_buckets() const;
  /// Test hook: live fair-share queue entries (bounded by the idle sweep).
  size_t tracked_requesters() const;

 private:
  /// One token-bucket shard: requesters hash here by name, and the rate
  /// check runs entirely under the shard lock — never the main mu_.
  struct BucketShard {
    mutable Mutex mu;
    std::map<std::string, TokenBucket> buckets GUARDED_BY(mu);
    uint64_t ops GUARDED_BY(mu) = 0;  ///< admissions since start, drives sweep
  };

  void Release() EXCLUDES(mu_);
  BucketShard& BucketShardFor(const std::string& requester) const;

  AdmissionConfig config_;
  trace::MetricsRegistry::Counter* c_admitted_;
  trace::MetricsRegistry::Counter* c_shed_;
  trace::MetricsRegistry::Counter* c_cancelled_;
  trace::MetricsRegistry::Counter* c_queued_;
  trace::LatencyCell* admission_wait_;

  mutable std::vector<BucketShard> bucket_shards_;
  size_t bucket_shard_mask_ = 0;

  /// The permissive path's in-flight gauge, one slot per thread slot
  /// (`trace::ThreadSlot`). Both counts only grow; a permit is held from its
  /// `admitted` increment to its `released` one, which may be in another
  /// thread's slot. `inflight()` sums `released` (acquire) before `admitted`,
  /// so every release it counts has its admission counted too, and a permit
  /// held across the call is never missed.
  struct alignas(64) GaugeSlot {
    std::atomic<size_t> admitted{0};
    std::atomic<size_t> released{0};
  };
  std::array<GaugeSlot, trace::kMetricSlots> gauge_;

  mutable Mutex mu_;
  CondVar cv_;
  /// Queries holding a permit on the bounded path.
  size_t inflight_ GUARDED_BY(mu_) = 0;
  uint64_t next_waiter_id_ GUARDED_BY(mu_) = 0;
  FairShareQueue queue_ GUARDED_BY(mu_);
  /// Waiters flipped to admitted by Release; their Admit call wakes, erases
  /// the marker, and owns the transferred slot.
  std::map<uint64_t, bool> admitted_ GUARDED_BY(mu_);
};

}  // namespace mediator
}  // namespace piye

#endif  // PIYE_MEDIATOR_ADMISSION_H_
