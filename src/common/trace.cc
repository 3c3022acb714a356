#include "common/trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

namespace piye {
namespace trace {

namespace {

/// Bucket i covers [2^(i-1), 2^i) microseconds, with bucket 0 = [0, 1).
size_t BucketIndex(double micros) {
  if (micros < 1.0) return 0;
  const size_t idx = static_cast<size_t>(std::log2(micros)) + 1;
  return std::min(idx, Histogram::kBuckets - 1);
}

double BucketUpperBound(size_t index) {
  return std::ldexp(1.0, static_cast<int>(index));  // 2^index
}

std::string FormatDouble(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

/// JSON string escaping for metric names: quotes, backslashes, and control
/// characters. Without this, a name containing `"` or `\` produced output no
/// strict parser would accept.
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

// --- Trace ---

void Trace::Record(std::string_view stage, double micros) {
  MutexLock lock(mu_);
  timings_.push_back({std::string(stage), micros});
}

std::vector<StageTiming> Trace::TakeTimings() {
  MutexLock lock(mu_);
  return std::move(timings_);
}

// --- Per-thread slots ---

size_t NextMetricSlot() {
  static std::atomic<size_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed) % kMetricSlots;
}

// --- Histogram ---

double Histogram::PercentileMicros(double p) const {
  if (count_ == 0) return 0.0;
  p = std::clamp(p, 0.0, 1.0);
  const uint64_t target = static_cast<uint64_t>(std::ceil(p * count_));
  uint64_t seen = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    seen += buckets_[i];
    if (seen >= target && buckets_[i] > 0) {
      return std::min(BucketUpperBound(i), max_);
    }
  }
  return max_;
}

// --- LatencyCell ---

void LatencyCell::Record(double micros) {
  micros = std::max(micros, 0.0);
  Slot& slot = slots_[ThreadSlot()];
  slot.buckets[BucketIndex(micros)].fetch_add(1, std::memory_order_relaxed);
  slot.sum.fetch_add(micros, std::memory_order_relaxed);
  double seen = slot.min.load(std::memory_order_relaxed);
  while (micros < seen &&
         !slot.min.compare_exchange_weak(seen, micros, std::memory_order_relaxed)) {
  }
  seen = slot.max.load(std::memory_order_relaxed);
  while (micros > seen &&
         !slot.max.compare_exchange_weak(seen, micros, std::memory_order_relaxed)) {
  }
  // Last, with release: a Snapshot that counts this sample sees its min/max.
  slot.count.fetch_add(1, std::memory_order_release);
}

Histogram LatencyCell::Snapshot() const {
  Histogram h;
  for (const Slot& slot : slots_) {
    const uint64_t count = slot.count.load(std::memory_order_acquire);
    if (count == 0) continue;
    for (size_t i = 0; i < Histogram::kBuckets; ++i) {
      h.buckets_[i] += slot.buckets[i].load(std::memory_order_relaxed);
    }
    h.sum_ += slot.sum.load(std::memory_order_relaxed);
    const double min = slot.min.load(std::memory_order_relaxed);
    const double max = slot.max.load(std::memory_order_relaxed);
    h.min_ = h.count_ == 0 ? min : std::min(h.min_, min);
    h.max_ = h.count_ == 0 ? max : std::max(h.max_, max);
    h.count_ += count;
  }
  return h;
}

// --- MetricsRegistry ---

uint64_t MetricsRegistry::Counter::Load() const {
  uint64_t total = 0;
  for (const Slot& slot : slots_) {
    total += slot.value.load(std::memory_order_relaxed);
  }
  return total;
}

MetricsRegistry::Counter* MetricsRegistry::RegisterCounter(
    const std::string& name) {
  MutexLock lock(mu_);
  auto [it, inserted] = counters_.try_emplace(name);
  if (inserted) it->second = std::make_unique<Counter>();
  return it->second.get();
}

LatencyCell* MetricsRegistry::RegisterLatency(const std::string& name) {
  MutexLock lock(mu_);
  auto [it, inserted] = latencies_.try_emplace(name);
  if (inserted) it->second = std::make_unique<LatencyCell>();
  return it->second.get();
}

uint64_t MetricsRegistry::counter(const std::string& name) const {
  MutexLock lock(mu_);
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second->Load();
}

Histogram MetricsRegistry::latency(const std::string& name) const {
  MutexLock lock(mu_);
  auto it = latencies_.find(name);
  return it == latencies_.end() ? Histogram() : it->second->Snapshot();
}

std::string MetricsRegistry::ToJson() const {
  MutexLock lock(mu_);
  std::string out = "{\"counters\": {";
  bool first = true;
  for (const auto& [name, cell] : counters_) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + JsonEscape(name) + "\": " +
           std::to_string(cell->Load());
  }
  out += "}, \"latencies\": {";
  first = true;
  for (const auto& [name, cell] : latencies_) {
    if (!first) out += ", ";
    first = false;
    const Histogram hist = cell->Snapshot();
    out += "\"" + JsonEscape(name) + "\": {";
    out += "\"count\": " + std::to_string(hist.count());
    if (hist.count() == 0) {
      // Explicit zeros: an empty histogram has no samples to summarize, and
      // emitting member-variable defaults here once leaked nonsense like a
      // "min" with no recorded value.
      out += ", \"sum_micros\": 0.000, \"min_micros\": 0.000"
             ", \"max_micros\": 0.000, \"mean_micros\": 0.000"
             ", \"p50_micros\": 0.000, \"p95_micros\": 0.000"
             ", \"p99_micros\": 0.000";
    } else {
      out += ", \"sum_micros\": " + FormatDouble(hist.sum_micros());
      out += ", \"min_micros\": " + FormatDouble(hist.min_micros());
      out += ", \"max_micros\": " + FormatDouble(hist.max_micros());
      out += ", \"mean_micros\": " + FormatDouble(hist.mean_micros());
      out += ", \"p50_micros\": " + FormatDouble(hist.PercentileMicros(0.50));
      out += ", \"p95_micros\": " + FormatDouble(hist.PercentileMicros(0.95));
      out += ", \"p99_micros\": " + FormatDouble(hist.PercentileMicros(0.99));
    }
    out += "}";
  }
  out += "}}";
  return out;
}

// --- ScopedSpan ---

ScopedSpan::ScopedSpan(std::string_view stage, Trace* trace, LatencyCell* latency)
    : stage_(stage),
      trace_(trace),
      latency_(latency),
      start_(std::chrono::steady_clock::now()) {}

double ScopedSpan::Stop() {
  if (stopped_) return 0.0;
  stopped_ = true;
  const auto now = std::chrono::steady_clock::now();
  const double micros =
      std::chrono::duration_cast<std::chrono::nanoseconds>(now - start_).count() /
      1000.0;
  if (trace_ != nullptr) trace_->Record(stage_, micros);
  if (latency_ != nullptr) latency_->Record(micros);
  return micros;
}

ScopedSpan::~ScopedSpan() { Stop(); }

}  // namespace trace
}  // namespace piye
