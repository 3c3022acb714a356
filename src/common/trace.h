#ifndef PIYE_COMMON_TRACE_H_
#define PIYE_COMMON_TRACE_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/sync.h"

namespace piye {
namespace trace {

/// One named stage duration of a query, in microseconds. This is the record
/// the engine reports back per query (previously the ad-hoc
/// `MediationEngine::StageTiming`); the aggregate view lives in the
/// `MetricsRegistry` histograms.
struct StageTiming {
  std::string stage;
  double micros = 0.0;
};

/// Thread-safe per-query span collector. Spans from concurrently executing
/// per-source tasks land in the same trace; ordering within the trace is
/// completion order, which is why callers that need a deterministic report
/// (the engine) record their top-level stages from a single thread.
class Trace {
 public:
  void Record(std::string_view stage, double micros);
  /// Moves the recorded timings out (the query's final report); the trace
  /// is empty afterwards.
  std::vector<StageTiming> TakeTimings();

 private:
  mutable Mutex mu_;
  std::vector<StageTiming> timings_ GUARDED_BY(mu_);
};

/// Every metric cell is split into this many per-thread slots, each on its
/// own cache lines, and summed on read. A thread records into the slot it
/// picked on first use (round-robin), so up to kMetricSlots recording
/// threads never write a line another one writes; more threads share slots,
/// which is why slot updates stay atomic.
inline constexpr size_t kMetricSlots = 16;

/// Hands out slots round-robin; ThreadSlot calls it once per thread.
size_t NextMetricSlot();

/// The calling thread's slot in [0, kMetricSlots), fixed for its lifetime.
inline size_t ThreadSlot() {
  thread_local const size_t slot = NextMetricSlot();
  return slot;
}

/// Fixed-bucket latency histogram (power-of-two microsecond buckets). The
/// value type of a latency snapshot; the registry records into lock-free
/// `LatencyCell`s and copies them out as Histograms.
class Histogram {
 public:
  static constexpr size_t kBuckets = 40;

  uint64_t count() const { return count_; }
  double sum_micros() const { return sum_; }
  double min_micros() const { return count_ == 0 ? 0.0 : min_; }
  double max_micros() const { return count_ == 0 ? 0.0 : max_; }
  double mean_micros() const { return count_ == 0 ? 0.0 : sum_ / count_; }

  /// Approximate percentile (p in [0,1]) from the bucket boundaries.
  double PercentileMicros(double p) const;

  const std::array<uint64_t, kBuckets>& buckets() const { return buckets_; }

 private:
  friend class LatencyCell;

  std::array<uint64_t, kBuckets> buckets_{};
  uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// A registered latency histogram: the same buckets and summary as
/// Histogram, held in per-thread-slot atomics so concurrent Records take no
/// lock and write no line another slot's thread writes. Snapshot merges the
/// slots. A Snapshot taken while Records are running may not yet show their
/// bucket or sum updates; every sample whose count it includes is in its
/// min/max.
class LatencyCell {
 public:
  void Record(double micros);
  Histogram Snapshot() const;

 private:
  struct alignas(64) Slot {
    std::array<std::atomic<uint64_t>, Histogram::kBuckets> buckets{};
    std::atomic<uint64_t> count{0};
    std::atomic<double> sum{0.0};
    std::atomic<double> min{std::numeric_limits<double>::infinity()};
    std::atomic<double> max{0.0};
  };
  std::array<Slot, kMetricSlots> slots_;
};

/// Registry of named counters and latency histograms. All operations are
/// thread-safe; the engine owns one and its concurrent per-source tasks
/// record into it directly.
///
/// Every metric is a stable cell. `RegisterCounter` and `RegisterLatency`
/// find or insert it under one mutex and hand it back; callers cache the
/// pointer and update the cell lock-free (the engine, admission, breakers
/// and warehouse register theirs at construction, so no query takes the
/// lock). Cells are split into per-thread slots (`kMetricSlots`), so
/// concurrent queries bumping the same metric do not bounce one cache line;
/// reads sum the slots. Reads by name and `ToJson` take the same mutex.
class MetricsRegistry {
 public:
  /// A registered counter cell, stable for the registry's lifetime, so
  /// cached pointers never dangle. `Add` writes the calling thread's slot;
  /// `Load` sums all slots.
  class Counter {
   public:
    void Add(uint64_t delta) {
      slots_[ThreadSlot()].value.fetch_add(delta, std::memory_order_relaxed);
    }
    uint64_t Load() const;

   private:
    struct alignas(64) Slot {
      std::atomic<uint64_t> value{0};
    };
    std::array<Slot, kMetricSlots> slots_;
  };

  /// Returns the (created-on-first-use) counter cell for `name`. Increment
  /// with `Bump`.
  Counter* RegisterCounter(const std::string& name);

  /// Returns the (created-on-first-use) latency cell for `name`; stable for
  /// the registry's lifetime. A registered cell that never records shows in
  /// ToJson at explicit zeros, so scrapers see the metric before its first
  /// sample.
  LatencyCell* RegisterLatency(const std::string& name);

  uint64_t counter(const std::string& name) const;
  /// Snapshot copy; a never-recorded name yields an empty histogram.
  Histogram latency(const std::string& name) const;

  /// Dumps every counter and histogram as a JSON object, names sorted:
  /// {"counters": {...}, "latencies": {name: {count, sum_micros, min_micros,
  /// max_micros, mean_micros, p50_micros, p95_micros, p99_micros}}}.
  /// Names are JSON-escaped; an empty histogram reports explicit zeros.
  std::string ToJson() const;

 private:
  mutable Mutex mu_;
  /// The maps are guarded; the cells they own are deliberately accessed
  /// lock-free through cached pointers.
  std::map<std::string, std::unique_ptr<Counter>> counters_ GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<LatencyCell>> latencies_ GUARDED_BY(mu_);
};

/// Adds `delta` to a registered counter cell; a null cell (no registry
/// attached) is a no-op.
inline void Bump(MetricsRegistry::Counter* counter, uint64_t delta = 1) {
  if (counter != nullptr) counter->Add(delta);
}

/// RAII span over a monotonic (steady) clock — wall-clock timestamps are
/// never used for durations, so NTP adjustments cannot produce negative
/// stage timings. On destruction (or explicit `Stop`) the elapsed time is
/// recorded into the optional per-query `Trace` and the optional registered
/// latency cell (conventionally the registry's "stage.<stage>"). `stage`
/// must outlive the span; it is a string literal in practice.
class ScopedSpan {
 public:
  ScopedSpan(std::string_view stage, Trace* trace, LatencyCell* latency = nullptr);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Ends the span early and returns the elapsed microseconds; the
  /// destructor then does nothing.
  double Stop();

 private:
  std::string_view stage_;
  Trace* trace_;
  LatencyCell* latency_;
  std::chrono::steady_clock::time_point start_;
  bool stopped_ = false;
};

}  // namespace trace
}  // namespace piye

#endif  // PIYE_COMMON_TRACE_H_
